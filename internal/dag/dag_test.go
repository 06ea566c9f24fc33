package dag

import (
	"math/rand"
	"testing"

	"clanbft/internal/types"
)

// buildRound creates a full round of n vertices, each with strong edges to
// all of the previous round (or none for round 0), and inserts them.
func buildRound(t *testing.T, d *DAG, r types.Round, n int, prev []*types.Vertex) []*types.Vertex {
	t.Helper()
	var out []*types.Vertex
	for i := 0; i < n; i++ {
		v := &types.Vertex{Round: r, Source: types.NodeID(i)}
		for _, p := range prev {
			v.StrongEdges = append(v.StrongEdges, p.Ref())
		}
		v.NormalizeEdges()
		if err := d.Insert(v); err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

func TestInsertAndLookup(t *testing.T) {
	d := New(16)
	r0 := buildRound(t, d, 0, 4, nil)
	if d.Len() != 4 || d.RoundCount(0) != 4 {
		t.Fatalf("len=%d round=%d", d.Len(), d.RoundCount(0))
	}
	v, ok := d.Get(types.Position{Round: 0, Source: 2})
	if !ok || v != r0[2] {
		t.Fatal("lookup failed")
	}
	if d.Has(types.Position{Round: 1, Source: 0}) {
		t.Fatal("phantom vertex")
	}
	// Idempotent re-insert.
	if err := d.Insert(r0[1]); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 4 {
		t.Fatal("re-insert duplicated")
	}
	// Conflicting vertex at the same position is rejected.
	bad := &types.Vertex{Round: 0, Source: 1, BlockDigest: types.HashBytes([]byte("x"))}
	if err := d.Insert(bad); err == nil {
		t.Fatal("equivocating insert accepted")
	}
}

func TestRoundVerticesSorted(t *testing.T) {
	d := New(16)
	for _, src := range []types.NodeID{3, 0, 2, 1} {
		d.Insert(&types.Vertex{Round: 5, Source: src})
	}
	vs := d.RoundVertices(5)
	for i, v := range vs {
		if v.Source != types.NodeID(i) {
			t.Fatalf("order: %v", vs)
		}
	}
	if d.MaxRound() != 5 {
		t.Fatalf("maxRound = %d", d.MaxRound())
	}
}

func TestStrongPath(t *testing.T) {
	d := New(16)
	r0 := buildRound(t, d, 0, 4, nil)
	r1 := buildRound(t, d, 1, 4, r0)
	// r2 vertices link only to r1[0..2], skipping r1[3].
	var r2 []*types.Vertex
	for i := 0; i < 4; i++ {
		v := &types.Vertex{Round: 2, Source: types.NodeID(i)}
		for _, p := range r1[:3] {
			v.StrongEdges = append(v.StrongEdges, p.Ref())
		}
		d.Insert(v)
		r2 = append(r2, v)
	}
	if !d.StrongPath(r2[0].Pos(), r0[3].Pos()) {
		t.Fatal("transitive strong path missed")
	}
	if !d.StrongPath(r2[1].Pos(), r1[2].Pos()) {
		t.Fatal("direct strong path missed")
	}
	if d.StrongPath(r1[0].Pos(), r2[0].Pos()) {
		t.Fatal("path found forwards in time")
	}
	if !d.StrongPath(r1[1].Pos(), r1[1].Pos()) {
		t.Fatal("self path missed")
	}
	if d.StrongPath(r1[0].Pos(), types.Position{Round: 0, Source: 9}) {
		t.Fatal("path to absent vertex")
	}

	// Weak edges must NOT create strong paths.
	w := &types.Vertex{Round: 3, Source: 0,
		StrongEdges: []types.VertexRef{r2[0].Ref(), r2[1].Ref(), r2[2].Ref()},
		WeakEdges:   []types.VertexRef{r1[3].Ref()},
	}
	d.Insert(w)
	if d.StrongPath(w.Pos(), r1[3].Pos()) {
		t.Fatal("weak edge treated as strong")
	}
}

func TestOrderCausalHistoryDeterministic(t *testing.T) {
	build := func(seed int64) []types.Position {
		d := New(16)
		rng := rand.New(rand.NewSource(seed))
		r0 := buildRound(t, d, 0, 4, nil)
		// Each r1 vertex links to a random 3-subset of r0 (insertion order
		// randomized too).
		perm := rng.Perm(4)
		var r1 []*types.Vertex
		for _, i := range perm {
			v := &types.Vertex{Round: 1, Source: types.NodeID(i)}
			for _, j := range rng.Perm(4)[:3] {
				v.StrongEdges = append(v.StrongEdges, r0[j].Ref())
			}
			v.NormalizeEdges()
			d.Insert(v)
			r1 = append(r1, v)
		}
		leader := r1[0]
		for _, v := range r1 {
			if v.Source == 1 {
				leader = v
			}
		}
		var out []types.Position
		for _, v := range d.OrderCausalHistory(leader.Pos()) {
			out = append(out, v.Pos())
		}
		return out
	}
	a := build(1)
	b := build(1)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
	// Round-major, source-minor.
	for i := 1; i < len(a); i++ {
		if a[i].Round < a[i-1].Round ||
			(a[i].Round == a[i-1].Round && a[i].Source <= a[i-1].Source) {
			t.Fatalf("not in total order: %v", a)
		}
	}
}

func TestOrderSkipsAlreadyOrdered(t *testing.T) {
	d := New(16)
	r0 := buildRound(t, d, 0, 4, nil)
	r1 := buildRound(t, d, 1, 4, r0)
	first := d.OrderCausalHistory(r1[0].Pos())
	if len(first) != 5 { // 4 x r0 + itself
		t.Fatalf("first batch %d, want 5", len(first))
	}
	second := d.OrderCausalHistory(r1[1].Pos())
	if len(second) != 1 || second[0] != r1[1] {
		t.Fatalf("second batch %v", second)
	}
	if !d.IsOrdered(r0[3].Pos()) {
		t.Fatal("ordered flag lost")
	}
	// Ordering the same leader again yields nothing.
	if len(d.OrderCausalHistory(r1[0].Pos())) != 0 {
		t.Fatal("re-order emitted duplicates")
	}
}

func TestOrderIncludesWeakEdges(t *testing.T) {
	d := New(16)
	r0 := buildRound(t, d, 0, 4, nil)
	// r1 only references r0[0..2]; r0[3] left dangling.
	var r1 []*types.Vertex
	for i := 0; i < 4; i++ {
		v := &types.Vertex{Round: 1, Source: types.NodeID(i)}
		for _, p := range r0[:3] {
			v.StrongEdges = append(v.StrongEdges, p.Ref())
		}
		d.Insert(v)
		r1 = append(r1, v)
	}
	// r2 leader carries a weak edge to the dangling r0[3].
	leader := &types.Vertex{Round: 2, Source: 0,
		StrongEdges: []types.VertexRef{r1[0].Ref(), r1[1].Ref(), r1[2].Ref()},
		WeakEdges:   []types.VertexRef{r0[3].Ref()},
	}
	d.Insert(leader)
	batch := d.OrderCausalHistory(leader.Pos())
	found := false
	for _, v := range batch {
		if v == r0[3] {
			found = true
		}
	}
	if !found {
		t.Fatal("weak-edge ancestor not ordered")
	}
}

func TestComplete(t *testing.T) {
	d := New(16)
	r0 := buildRound(t, d, 0, 4, nil)
	v := &types.Vertex{Round: 1, Source: 0,
		StrongEdges: []types.VertexRef{r0[0].Ref(), r0[1].Ref(), r0[2].Ref()},
		WeakEdges:   []types.VertexRef{{Round: 0, Source: 9}}, // missing
	}
	d.Insert(v)
	if d.Complete(v.Pos()) {
		t.Fatal("incomplete history reported complete")
	}
	d.Insert(&types.Vertex{Round: 0, Source: 9})
	// Digest of the inserted blank vertex differs from the ref digest, but
	// Complete only checks positions (RBC guarantees digest uniqueness).
	if !d.Complete(v.Pos()) {
		t.Fatal("complete history reported incomplete")
	}
	if d.Complete(types.Position{Round: 7, Source: 7}) {
		t.Fatal("absent vertex reported complete")
	}
}

func TestGC(t *testing.T) {
	d := New(16)
	r0 := buildRound(t, d, 0, 4, nil)
	r1 := buildRound(t, d, 1, 4, r0)
	r2 := buildRound(t, d, 2, 4, r1)
	d.OrderCausalHistory(r2[0].Pos())
	d.GC(2)
	if d.MinRound() != 2 {
		t.Fatalf("minRound = %d", d.MinRound())
	}
	if d.Len() != 4 {
		t.Fatalf("len = %d after GC, want 4", d.Len())
	}
	if d.Has(r0[0].Pos()) || d.Has(r1[0].Pos()) {
		t.Fatal("GC'd vertex still present")
	}
	// Inserts below the horizon are dropped silently.
	if err := d.Insert(&types.Vertex{Round: 1, Source: 9}); err != nil {
		t.Fatal(err)
	}
	if d.Has(types.Position{Round: 1, Source: 9}) {
		t.Fatal("below-horizon insert accepted")
	}
	// Complete() treats GC'd ancestors as satisfied.
	if !d.Complete(r2[1].Pos()) {
		t.Fatal("GC horizon broke Complete")
	}
	// GC is monotone.
	d.GC(1)
	if d.MinRound() != 2 {
		t.Fatal("GC went backwards")
	}
}

func TestHasStrongEdgeToHelper(t *testing.T) {
	d := New(16)
	r0 := buildRound(t, d, 0, 4, nil)
	v := &types.Vertex{Round: 1, Source: 0,
		StrongEdges: []types.VertexRef{r0[0].Ref(), r0[2].Ref()}}
	if !v.HasStrongEdgeTo(r0[0].Pos()) || v.HasStrongEdgeTo(r0[1].Pos()) {
		t.Fatal("HasStrongEdgeTo wrong")
	}
}

func BenchmarkStrongPath(b *testing.B) {
	d := New(64)
	n := 50
	var prev []*types.Vertex
	for r := types.Round(0); r < 10; r++ {
		var cur []*types.Vertex
		for i := 0; i < n; i++ {
			v := &types.Vertex{Round: r, Source: types.NodeID(i)}
			for _, p := range prev {
				v.StrongEdges = append(v.StrongEdges, p.Ref())
			}
			d.Insert(v)
			cur = append(cur, v)
		}
		prev = cur
	}
	from := types.Position{Round: 9, Source: 0}
	to := types.Position{Round: 0, Source: 49}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.StrongPath(from, to) {
			b.Fatal("path missed")
		}
	}
}

func BenchmarkOrderCausalHistory(b *testing.B) {
	n := 50
	for i := 0; i < b.N; i++ {
		d := New(64)
		var prev []*types.Vertex
		for r := types.Round(0); r < 6; r++ {
			var cur []*types.Vertex
			for j := 0; j < n; j++ {
				v := &types.Vertex{Round: r, Source: types.NodeID(j)}
				for _, p := range prev {
					v.StrongEdges = append(v.StrongEdges, p.Ref())
				}
				d.Insert(v)
				cur = append(cur, v)
			}
			prev = cur
		}
		if got := len(d.OrderCausalHistory(prev[0].Pos())); got != 5*n+1 {
			b.Fatalf("ordered %d", got)
		}
	}
}

// TestOrderingPartitionProperty property-checks the ordering invariant on
// random DAGs: ordering a sequence of leaders emits every reachable vertex
// exactly once, never re-emits, and always respects round-major order within
// each batch.
func TestOrderingPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(5)
		rounds := 3 + rng.Intn(5)
		d := New(16)
		var prev []*types.Vertex
		for r := 0; r < rounds; r++ {
			var cur []*types.Vertex
			for i := 0; i < n; i++ {
				if r > 0 && rng.Intn(8) == 0 {
					continue // some vertices never arrive
				}
				v := &types.Vertex{Round: types.Round(r), Source: types.NodeID(i)}
				// Random subset of the previous round (at least 2/3).
				for _, p := range prev {
					if rng.Intn(4) != 0 {
						v.StrongEdges = append(v.StrongEdges, p.Ref())
					}
				}
				v.NormalizeEdges()
				d.Insert(v)
				cur = append(cur, v)
			}
			prev = cur
		}
		emitted := map[types.Position]int{}
		for r := 0; r < rounds; r++ {
			vs := d.RoundVertices(types.Round(r))
			if len(vs) == 0 {
				continue
			}
			leader := vs[rng.Intn(len(vs))]
			batch := d.OrderCausalHistory(leader.Pos())
			for k, v := range batch {
				emitted[v.Pos()]++
				if emitted[v.Pos()] > 1 {
					t.Fatalf("trial %d: %v emitted twice", trial, v.Pos())
				}
				if k > 0 && batch[k-1].Round > v.Round {
					t.Fatalf("trial %d: batch not round-major", trial)
				}
			}
		}
	}
}
