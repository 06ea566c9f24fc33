package core

import (
	"testing"
	"time"

	"clanbft/internal/types"
)

// checkCausalCoverage asserts strong-path commit coverage on every node's
// committed sequence: each vertex's strong and weak parents must have been
// ordered before it, so a committed leader's causal history stays fully
// reachable and is emitted ahead of the leader.
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
// exactly once. A vertex that missed every strong-edge set must re-enter
// through the lateVertices weak-edge path, so a hole here means that path
// lost a vertex.
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
// coverage test: every proposed vertex enters the total order exactly once,
// with causal parents always ordered first. Edges are always dense now; the
// name and the sparse=false case are kept so the test's history stays
// traceable across the removal of sparse parent sampling.
func TestLateVertexInclusionDenseAndSparse(t *testing.T) {
	t.Run("sparse=false", func(t *testing.T) {
		c := newTCluster(t, 10, topt{mode: ModeBaseline, seed: 3})
		c.run(8 * time.Second)
		if got := c.minOrdered(nil); got < 30 {
			t.Fatalf("ordered only %d vertices", got)
		}
		c.checkConsistentOrder(nil)
		checkCausalCoverage(t, c)
		checkFullInclusion(t, c)
	})
}

// TestMultiClanInclusion runs the clan-based configuration and checks the
// commit pipeline end to end: consistent total order, causal coverage and
// full inclusion.
func TestMultiClanInclusion(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	n := 12
	c := newTCluster(t, n, topt{mode: ModeMultiClan, clans: SampleClans(ModeMultiClan, (&Params{}).MemberSet(n), 0, 2, 9, nil), seed: 5})
	c.run(8 * time.Second)
	c.checkConsistentOrder(nil)
	checkCausalCoverage(t, c)
	checkFullInclusion(t, c)
}
