package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"clanbft/internal/dag"
	"clanbft/internal/faults"
	"clanbft/internal/store"
	"clanbft/internal/types"
)

// TestCertSurvivesRowRecycle: a certificate lives in its round's row, rows are
// recycled, and an in-process transport hands the receiver the sender's
// pointers — so a pull reply must carry a copy. The reply's certificate still
// verifies at the receiver after the sender has retired the row and another
// round has tallied different voters in the same bytes.
func TestCertSurvivesRowRecycle(t *testing.T) {
	const n = 7
	keys := testKeys(n)
	c, sender := oneNode(t, n, 0, topt{})
	v, val := round0(keys, 1)
	pos, d := v.Pos(), v.DigestCached()
	sender.step(msgIn(1, val))
	for voter := types.NodeID(2); voter <= 5; voter++ {
		sender.step(msgIn(voter, signedEchoes(&keys[voter], voter, types.EchoEntry{Pos: pos, Digest: d})))
	}
	in := sender.rbc.Get(pos)
	if in == nil || !in.Delivered() {
		t.Fatalf("%v not delivered at the sender", pos)
	}
	rowBits := &in.Cert().Bitmap[0]
	sender.step(msgIn(6, &types.VtxReqMsg{Pos: pos}))
	out := c.take(6)
	var rsp *types.VtxRspMsg
	if len(out) > 0 {
		rsp, _ = out[len(out)-1].m.(*types.VtxRspMsg)
	}
	if rsp == nil || rsp.Cert == nil {
		t.Fatalf("no certified pull reply: %v", out)
	}
	if &rsp.Cert.Agg.Bitmap[0] == rowBits {
		t.Fatal("the reply's certificate aliases the row")
	}
	want := rsp.Cert.Agg.Clone()

	// Retire round 0's row; round 1 takes it over and tallies voters 2, 3
	// and 6 for source 1 where voters 1..5 were.
	sender.mu.Lock()
	sender.rbc.GC(1)
	sender.mu.Unlock()
	up := types.EchoEntry{Pos: types.Position{Round: 1, Source: 1}, Digest: types.Hash{9}}
	for _, voter := range []types.NodeID{2, 3, 6} {
		sender.step(msgIn(voter, signedEchoes(&keys[voter], voter, up)))
	}
	reused := sender.rbc.Get(up.Pos)
	if reused == nil || &reused.Tally(up.Digest)[0] != rowBits {
		t.Fatal("round 1 did not reuse round 0's row")
	}
	if rsp.Cert.Agg.Tag != want.Tag || !bytes.Equal(rsp.Cert.Agg.Bitmap, want.Bitmap) {
		t.Fatalf("the reply's certificate changed with the row: bitmap %08b, was %08b", rsp.Cert.Agg.Bitmap, want.Bitmap)
	}
	_, recv := oneNode(t, n, 6, topt{})
	recv.step(msgIn(0, rsp))
	if got := recv.rbc.Get(pos); got == nil || !got.Delivered() {
		t.Fatal("the receiver did not accept the pulled vertex on the reply's certificate")
	}
}

// orderStore records the order in which vertices are persisted — insertNow
// writes each one as it enters the DAG. It keeps no value: each batch is
// read back and cleared, so the store holds one batch at a time.
type orderStore struct {
	store.Store
	seen  map[string]bool
	order []types.Position
}

func (s *orderStore) Apply(b *store.Batch) error {
	err := s.Store.Apply(b)
	var keys []string
	s.Store.Scan([]byte("v/"), func(k, _ []byte) bool {
		keys = append(keys, string(k))
		if !s.seen[string(k)] {
			s.seen[string(k)] = true
			var p types.Position
			for _, c := range k[2:10] {
				p.Round = p.Round<<8 | types.Round(c)
			}
			p.Source = types.NodeID(k[10])<<8 | types.NodeID(k[11])
			s.order = append(s.order, p)
		}
		return true
	})
	for _, k := range keys {
		s.Store.Delete([]byte(k))
	}
	return err
}

// rescanInserter is the parent commit's buffering rule, kept as the
// reference: a waiting child is re-scanned, every edge of it, each time one
// of its parents arrives.
type rescanInserter struct {
	min     types.Round
	has     map[types.Position]bool
	pending map[types.Position]*types.Vertex
	waiting map[types.Position][]types.Position
	order   []types.Position
}

func (r *rescanInserter) missing(v *types.Vertex) (ps []types.Position) {
	for i, k := 0, v.NumEdges(); i < k; i++ {
		if p := v.Edge(i).Pos(); p.Round >= r.min && !r.has[p] {
			ps = append(ps, p)
		}
	}
	return ps
}

func (r *rescanInserter) try(v *types.Vertex) {
	if r.has[v.Pos()] {
		return
	}
	if ps := r.missing(v); len(ps) > 0 {
		r.pending[v.Pos()] = v
		for _, p := range ps {
			r.waiting[p] = append(r.waiting[p], v.Pos())
		}
		return
	}
	r.insert(v)
}

func (r *rescanInserter) insert(v *types.Vertex) {
	pos := v.Pos()
	r.has[pos] = true
	r.order = append(r.order, pos)
	delete(r.pending, pos)
	kids := r.waiting[pos]
	delete(r.waiting, pos)
	for _, kid := range kids {
		if pend, ok := r.pending[kid]; ok && len(r.missing(pend)) == 0 {
			r.insert(pend)
		}
	}
}

// TestPendingInsertCounts: a buffered vertex counts its missing parents down
// instead of being re-scanned. Over a three-round n=4 DAG whose top round
// arrives first — one of its vertices twice, one of them naming a parent
// twice and another one below the horizon — then the two rounds below in
// every order, one parent twice: the DAG fills in the order the re-scanning
// rule gives, and nothing is left buffered.
func TestPendingInsertCounts(t *testing.T) {
	const n, base = 4, types.Round(10)
	var rounds [3][]*types.Vertex
	for r := range rounds {
		for src := types.NodeID(0); src < n; src++ {
			v := &types.Vertex{Round: base + types.Round(r), Source: src}
			if r > 0 {
				for _, p := range rounds[r-1] {
					v.StrongEdges = append(v.StrongEdges, p.Ref())
				}
			}
			rounds[r] = append(rounds[r], v)
		}
	}
	dup := rounds[0][2].Ref()
	rounds[2][3].WeakEdges = []types.VertexRef{{Round: base - 5, Source: 0}, dup, dup}
	top := append(append([]*types.Vertex{}, rounds[2]...), rounds[2][1])
	below := append(append([]*types.Vertex{}, rounds[0]...), rounds[1]...)

	// One node takes every order: between two, its DAG and its store start
	// over, and the buffers are empty when the order passes.
	_, node := oneNode(t, n, 0, topt{})
	st := &orderStore{Store: store.NewMem(), seen: map[string]bool{}}
	node.cfg.Store = st
	ref := &rescanInserter{min: base, has: map[types.Position]bool{},
		pending: map[types.Position]*types.Vertex{}, waiting: map[types.Position][]types.Position{}}
	var arrivals []*types.Vertex
	orders := 0
	var permute func(k int)
	run := func() {
		orders++
		clear(st.seen)
		st.order = st.order[:0]
		*node.dag = *dag.New(n)
		node.dag.GC(base)
		clear(ref.has)
		ref.order = ref.order[:0]
		arrivals = append(append(append(arrivals[:0], top...), below...), below[0]) // a parent arrives twice
		for _, v := range arrivals {
			node.tryInsert(v)
			ref.try(v)
		}
		if len(st.order) != 3*n || len(node.ord.pendingInsert) != 0 || len(node.ord.waitingChild) != 0 {
			t.Fatalf("inserted %d of %d, %d still buffered, %d parents still awaited",
				len(st.order), 3*n, len(node.ord.pendingInsert), len(node.ord.waitingChild))
		}
		for i, p := range ref.order {
			if len(ref.order) != len(st.order) || st.order[i] != p {
				t.Fatalf("arrivals %v:\ninserted %v\nwant     %v", arrivals, st.order, ref.order)
			}
		}
	}
	permute = func(k int) {
		if k == len(below) {
			run()
			return
		}
		for i := k; i < len(below); i++ {
			below[k], below[i] = below[i], below[k]
			permute(k + 1)
			below[k], below[i] = below[i], below[k]
		}
	}
	permute(0)
	t.Logf("%d arrival orders", orders)

	// A parent the horizon passes counts as present: gc takes it off the
	// count, and the child it was the last for goes in.
	_, node = oneNode(t, n, 0, topt{})
	node.dag.GC(base)
	for _, v := range rounds[0][1:] {
		node.tryInsert(v)
	}
	child := rounds[1][0]
	node.tryInsert(child)
	if pend := node.ord.pendingInsert[child.Pos()]; pend.missing != 1 {
		t.Fatalf("child waits for %d parents, want 1", pend.missing)
	}
	node.lastCommitRound = base + 1 + types.Round(node.cfg.GCDepth)
	node.gc()
	if !node.dag.Has(child.Pos()) || len(node.ord.pendingInsert) != 0 || len(node.ord.waitingChild) != 0 {
		t.Fatalf("after the horizon passed its last missing parent: child in DAG %v, %d buffered, %d awaited",
			node.dag.Has(child.Pos()), len(node.ord.pendingInsert), len(node.ord.waitingChild))
	}
}

// TestHorizonReleasesBufferedVertex reaches gc's insertion of a buffered
// vertex on the simulator. Node 2's round-11 vertex P is late everywhere
// (375 ms), so the round-16 proposals of nodes 1-3 reference it by weak edge,
// and node 0 never gets it: every frame that carries P toward node 0 is
// dropped. Node 0 buffers those round-16 vertices for P until its horizon,
// four rounds behind its last commit, passes round 11 — which the commit of
// its own round-16 vertex, round 16's primary slot, does. The commit of the
// buffered vertices must follow within two rounds, in the order everyone else
// emits, and without P, which the horizon released everywhere at that point.
func TestHorizonReleasesBufferedVertex(t *testing.T) {
	const n, gcDepth, x = 4, 4, types.NodeID(0)
	late := types.Position{Round: 11, Source: 2}
	aboutLate := func(m types.Message) bool {
		switch msg := m.(type) {
		case *types.ValMsg:
			return msg.Vertex.Pos() == late
		case *types.EchoMsg:
			return slices.ContainsFunc(msg.Entries, func(e types.EchoEntry) bool { return e.Pos == late })
		case *types.VtxRspMsg:
			return msg.Vertex.Pos() == late
		}
		return false
	}
	fnet := faults.NewNet(n, 1, nil)
	for id := types.NodeID(1); id < n; id++ {
		fnet.Apply(0, faults.Event{Kind: faults.KindDrop, From: id, To: x, P: 1, Match: aboutLate})
		if id != late.Source {
			fnet.Apply(0, faults.Event{Kind: faults.KindDelay, From: late.Source, To: id, Delay: 375 * time.Millisecond,
				Match: func(m types.Message) bool { v, ok := m.(*types.ValMsg); return ok && v.Vertex.Pos() == late }})
		}
	}
	refs := map[types.Position]bool{} // vertices with a weak edge to P
	fnet.SetTap(func(from, to types.NodeID, m types.Message) {
		if v, ok := m.(*types.ValMsg); ok && to == x &&
			slices.ContainsFunc(v.Vertex.WeakEdges, func(e types.VertexRef) bool { return e.Pos() == late }) {
			refs[v.Vertex.Pos()] = true
		}
	})
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, fnet: fnet, gcDepth: gcDepth})
	nd := c.nodes[x]
	var buffered, swept, emitted types.Round
	for c.net.Now() < 4*time.Second {
		c.run(time.Millisecond)
		for pos := range refs {
			if _, ok := nd.ord.pendingInsert[pos]; ok && buffered == 0 {
				buffered = nd.round
			}
			if nd.dag.Has(pos) && swept == 0 {
				swept = nd.round
				if buffered == 0 || nd.dag.MinRound() <= late.Round || nd.dag.Has(late) {
					t.Fatalf("%v entered node 0's DAG at round %d (buffered at %d, horizon %d), want it released by the horizon passing %v",
						pos, swept, buffered, nd.dag.MinRound(), late)
				}
			}
		}
		if emitted == 0 && slices.ContainsFunc(c.orders[x], func(cv CommittedVertex) bool { return refs[cv.Vertex.Pos()] }) {
			emitted = nd.round
		}
	}
	if len(refs) == 0 || swept == 0 || emitted == 0 || emitted > swept+2 {
		t.Fatalf("weak edges to %v from %v; node 0 buffered one at round %d, the horizon released it at %d, its commit was emitted at %d",
			late, refs, buffered, swept, emitted)
	}
	for i := range c.nodes {
		if slices.ContainsFunc(c.orders[i], func(cv CommittedVertex) bool { return cv.Vertex.Pos() == late }) {
			t.Fatalf("node %d ordered %v, which the horizon had released", i, late)
		}
		if len(c.orders[i]) != len(c.orders[x]) {
			t.Fatalf("node %d ordered %d vertices, node 0 %d", i, len(c.orders[i]), len(c.orders[x]))
		}
	}
	c.checkConsistentOrder(nil)
}

// TestHorizonWaitsForEmission: the scenario above with node 1 cut off from P
// for the whole run. Nodes 0, 2 and 3 do get P, late, and order it under an
// anchor whose causal history reaches more than GCDepth rounds below it.
// Ordering runs ahead of emission: if the horizon passed P before drainOut
// handed it to execution, P's block and RBC instance would be collected
// while P still waited in the out queue, and every later vertex would wait
// behind it for good. Each of those nodes must emit every vertex it orders.
// Node 1 stops at round 15, for want of P: that is the injected fault.
func TestHorizonWaitsForEmission(t *testing.T) {
	const n, gcDepth, x = 4, 4, types.NodeID(1)
	late := types.Position{Round: 11, Source: 2}
	aboutLate := func(m types.Message) bool {
		switch msg := m.(type) {
		case *types.ValMsg:
			return msg.Vertex.Pos() == late
		case *types.EchoMsg:
			return slices.ContainsFunc(msg.Entries, func(e types.EchoEntry) bool { return e.Pos == late })
		case *types.VtxRspMsg:
			return msg.Vertex.Pos() == late
		}
		return false
	}
	for _, delay := range []time.Duration{350 * time.Millisecond, 375 * time.Millisecond} {
		t.Run(delay.String(), func(t *testing.T) {
			fnet := faults.NewNet(n, 1, nil)
			for id := types.NodeID(0); id < n; id++ {
				if id == x {
					continue
				}
				fnet.Apply(0, faults.Event{Kind: faults.KindDrop, From: id, To: x, P: 1, Match: aboutLate})
				if id != late.Source {
					fnet.Apply(0, faults.Event{Kind: faults.KindDelay, From: late.Source, To: id, Delay: delay,
						Match: func(m types.Message) bool { v, ok := m.(*types.ValMsg); return ok && v.Vertex.Pos() == late }})
				}
			}
			c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, fnet: fnet, gcDepth: gcDepth})
			c.run(4 * time.Second)
			for i, nd := range c.nodes {
				if types.NodeID(i) == x {
					continue
				}
				if ordered := nd.MetricsSnapshot().VerticesOrdered; ordered < 100 || len(c.orders[i]) != ordered {
					t.Fatalf("node %d ordered %d vertices and emitted %d; %d wait in its out queue",
						i, ordered, len(c.orders[i]), nd.ord.out.Len())
				}
			}
			c.checkConsistentOrder(nil)
		})
	}
}
