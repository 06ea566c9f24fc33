package core

import (
	"fmt"
	"testing"
	"time"

	"clanbft/internal/committee"
	"clanbft/internal/simnet"
	"clanbft/internal/types"
)

// mkSelectNode builds an unstarted node for exercising selectParents
// directly (no traffic flows; only the ordering-stage state is populated).
func mkSelectNode(t *testing.T, n int, seed uint64) *Node {
	t.Helper()
	net := simnet.New(simnet.Config{N: 1, Seed: 1})
	return New(Config{
		Self: 0, N: n, SparseEdges: true, SparseSeed: seed,
	}, net.Endpoint(0), net.Clock(0))
}

func fillDelivered(nd *Node, r types.Round, n int) {
	for s := 0; s < n; s++ {
		pos := types.Position{Round: r, Source: types.NodeID(s)}
		nd.inst(pos)
		row := nd.rbc.insts[r]
		row.delivered = append(row.delivered, &types.Vertex{Round: r, Source: pos.Source})
	}
}

// TestSparseSelectParents pins the selection invariants: the previous
// round's leader is always kept, the sample is exactly 2f+1, selection plus
// deferral partitions the delivered set, the draw is deterministic in
// (seed, round, self), and rounds with at most 2f+1 delivered parents fall
// back to referencing everything.
func TestSparseSelectParents(t *testing.T) {
	const n = 40 // f=13, 2f+1=27
	nd := mkSelectNode(t, n, 7)
	fillDelivered(nd, 4, n)

	sel, def := nd.selectParents(5)
	if len(sel) != 2*nd.cfg.F+1 {
		t.Fatalf("selected %d parents, want %d", len(sel), 2*nd.cfg.F+1)
	}
	if len(sel)+len(def) != n {
		t.Fatalf("selection does not partition: %d+%d != %d", len(sel), len(def), n)
	}
	seen := map[types.NodeID]bool{}
	haveLeader := false
	leader := nd.leaderAt(4, 0)
	for _, pv := range sel {
		if seen[pv.Source] {
			t.Fatalf("source %d selected twice", pv.Source)
		}
		seen[pv.Source] = true
		if pv.Source == leader {
			haveLeader = true
		}
	}
	for _, pv := range def {
		if seen[pv.Source] {
			t.Fatalf("source %d both selected and deferred", pv.Source)
		}
		seen[pv.Source] = true
	}
	if !haveLeader {
		t.Fatalf("leader %d of round 4 not among strong parents", leader)
	}

	// Same (seed, round, self) reproduces the identical draw.
	nd2 := mkSelectNode(t, n, 7)
	fillDelivered(nd2, 4, n)
	sel2, _ := nd2.selectParents(5)
	for i := range sel {
		if sel[i].Source != sel2[i].Source {
			t.Fatalf("draw not deterministic: index %d has %d vs %d", i, sel[i].Source, sel2[i].Source)
		}
	}

	// A different seed changes the sample (deterministically checked; the
	// collision odds over C(39,26) draws are nil).
	nd3 := mkSelectNode(t, n, 8)
	fillDelivered(nd3, 4, n)
	sel3, _ := nd3.selectParents(5)
	same := true
	for i := range sel {
		if sel[i].Source != sel3[i].Source {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different SparseSeed produced the identical draw")
	}

	// At most 2f+1 delivered: dense fallback, nothing deferred.
	small := mkSelectNode(t, 4, 7) // f=1, 2f+1=3
	fillDelivered(small, 4, 3)
	sel, def = small.selectParents(5)
	if len(sel) != 3 || len(def) != 0 {
		t.Fatalf("fallback selected %d/%d, want 3/0", len(sel), len(def))
	}
}

// checkCausalCoverage asserts strong-path commit coverage on every node's
// committed sequence: each vertex's strong and weak parents must have been
// ordered before it. This is the safety property sparse parent selection
// must preserve — a committed leader's causal history stays fully reachable
// and is emitted ahead of the leader, exactly as in dense mode.
func checkCausalCoverage(t *testing.T, c *tcluster) {
	t.Helper()
	for i := 0; i < c.n; i++ {
		emitted := map[types.Position]bool{}
		for _, cv := range c.orders[i] {
			v := cv.Vertex
			for _, edges := range [2][]types.VertexRef{v.StrongEdges, v.WeakEdges} {
				for _, e := range edges {
					if !emitted[e.Pos()] {
						t.Fatalf("node %d ordered %v before its parent %v", i, v.Pos(), e.Pos())
					}
				}
			}
			if emitted[v.Pos()] {
				t.Fatalf("node %d ordered %v twice", i, v.Pos())
			}
			emitted[v.Pos()] = true
		}
	}
}

// checkFullInclusion asserts BAB validity on node 0's sequence: every
// position of every round up to the last fully ordered round appears
// exactly once. In sparse mode the parents sampled out of the strong set
// must re-enter through the lateVertices weak-edge path (or transitive
// coverage), so a hole here means that path lost a vertex.
func checkFullInclusion(t *testing.T, c *tcluster) {
	t.Helper()
	count := map[types.Position]int{}
	last := types.Round(0)
	for _, cv := range c.orders[0] {
		count[cv.Vertex.Pos()]++
		if cv.Vertex.Round > last {
			last = cv.Vertex.Round
		}
	}
	if last < 6 {
		t.Fatalf("ordered only up to round %d; run too short to assert inclusion", last)
	}
	for r := types.Round(0); r <= last-3; r++ {
		for s := 0; s < c.n; s++ {
			pos := types.Position{Round: r, Source: types.NodeID(s)}
			if got := count[pos]; got != 1 {
				t.Fatalf("position %v ordered %d times, want exactly 1", pos, got)
			}
		}
	}
}

// TestLateVertexInclusionDenseAndSparse is the lateVertices weak-edge
// coverage test: under both edge modes, every proposed vertex — including
// the ones sparse sampling leaves out of every strong-edge set — enters the
// total order exactly once, with causal parents always ordered first.
// Sparse mode at n=10 samples 7 of ~10 parents every round, so the deferral
// path is exercised continuously rather than only on unlucky schedules.
func TestLateVertexInclusionDenseAndSparse(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		t.Run(fmt.Sprintf("sparse=%v", sparse), func(t *testing.T) {
			c := newTCluster(t, 10, topt{mode: ModeBaseline, sparse: sparse, seed: 3})
			c.net.Run(8 * time.Second)
			if got := c.minOrdered(nil); got < 30 {
				t.Fatalf("ordered only %d vertices", got)
			}
			c.checkConsistentOrder(nil)
			checkCausalCoverage(t, c)
			checkFullInclusion(t, c)
		})
	}
}

// TestSparseMultiClanSafetyAndThroughput runs the clan-based configuration
// in sparse mode and checks the commit pipeline end to end: consistent
// total order, causal coverage, full inclusion, and a committed-vertex
// count no worse than the dense run of the same seed (sparse edges must not
// cost commit throughput on the failure-free path).
func TestSparseMultiClanSafetyAndThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	n := 12
	clans := committee.PartitionClans(n, 2, 9)
	ordered := map[bool]int{}
	for _, sparse := range []bool{false, true} {
		c := newTCluster(t, n, topt{mode: ModeMultiClan, clans: clans, sparse: sparse, seed: 5})
		c.net.Run(8 * time.Second)
		c.checkConsistentOrder(nil)
		checkCausalCoverage(t, c)
		checkFullInclusion(t, c)
		ordered[sparse] = c.minOrdered(nil)
	}
	if ordered[true]*10 < ordered[false]*9 {
		t.Fatalf("sparse ordered %d vertices vs dense %d (below 0.9x)", ordered[true], ordered[false])
	}
}

// TestSparseCrashFaultTolerance keeps f parties crashed from the start in
// sparse mode: the timeout/no-vote path, vertex pulls, and the weak-edge
// deferral must still produce a consistent, causally covered order.
func TestSparseCrashFaultTolerance(t *testing.T) {
	n := 7 // f = 2
	mute := map[types.NodeID]bool{5: true, 6: true}
	c := newTCluster(t, n, topt{
		mode: ModeBaseline, mute: mute, timeout: 700 * time.Millisecond,
		sparse: true, seed: 9,
	})
	c.net.Run(12 * time.Second)
	if got := c.minOrdered(mute); got < 12 {
		t.Fatalf("ordered only %d vertices with %d crashed", got, len(mute))
	}
	c.checkConsistentOrder(mute)
	checkCausalCoverage(t, c)
}
