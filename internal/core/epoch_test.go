package core

import (
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/types"
)

// signedReconfig builds a membership transaction signed by the affected
// party's key (the tcluster key universe).
func signedReconfig(c *tcluster, action types.ReconfigAction, id types.NodeID, addr string) types.ReconfigTx {
	tx := types.ReconfigTx{Action: action, Node: id, Addr: addr}
	SignReconfig(c.reg, &c.keys[id], &tx)
	return tx
}

// submitReconfig queues tx at every epoch-0 member (redundant inclusion is
// deduplicated by the deterministic validity check at scheduling time).
func submitReconfig(c *tcluster, members []types.NodeID, tx types.ReconfigTx) {
	for _, id := range members {
		c.nodes[id].SubmitReconfig(tx)
	}
}

// TestEpochFenceJoin: a committed join ReconfigTx schedules an epoch fence;
// past the fence the joined party is a proposer whose vertices reach the
// total order, every node agrees on the new membership, and the commit
// sequence stays prefix-consistent across the fence.
func TestEpochFenceJoin(t *testing.T) {
	n := 5
	members := []types.NodeID{0, 1, 2, 3}
	c := newTCluster(t, n, topt{
		mode: ModeBaseline, uniform: true, txCount: 1,
		timeout: 700 * time.Millisecond, members: members, rdelay: 8,
	})
	c.run(2 * time.Second)
	if got := c.nodes[4].Round(); got == 0 {
		t.Fatalf("observer never advanced (round %d) before the fence", got)
	}
	submitReconfig(c, members, signedReconfig(c, types.ReconfigJoin, 4, "sim://4"))
	c.run(8 * time.Second)

	var fence types.Round
	for i := 0; i < n; i++ {
		tbl := c.nodes[i].EpochTable()
		last := tbl[len(tbl)-1]
		if last.Epoch != 1 || len(last.Members) != 5 {
			t.Fatalf("node %d: epoch table head %+v, want epoch 1 with 5 members", i, last)
		}
		if i == 0 {
			fence = last.StartRound
		} else if last.StartRound != fence {
			t.Fatalf("node %d fence %d != node 0 fence %d", i, last.StartRound, fence)
		}
	}
	// The joined party proposes in the new epoch and its vertices are
	// ordered by everyone.
	joinedOrdered := false
	for _, cv := range c.orders[0] {
		if cv.Vertex.Source == 4 && cv.Vertex.Round >= fence {
			joinedOrdered = true
			break
		}
	}
	if !joinedOrdered {
		t.Fatalf("no post-fence vertex from the joined party in the total order (fence %d, node4 round %d)",
			fence, c.nodes[4].Round())
	}
	if got, want := c.nodes[4].Round(), c.nodes[0].Round(); got+5 < want {
		t.Fatalf("joined party lags: round %d vs cluster %d", got, want)
	}
	c.checkConsistentOrder(nil)
}

// TestEpochFenceLeave: a committed leave retires the party at the fence — it
// keeps tracking the DAG as an observer, but none of its post-fence vertices
// are ordered and the remaining members keep committing.
func TestEpochFenceLeave(t *testing.T) {
	n := 5
	c := newTCluster(t, n, topt{
		mode: ModeBaseline, uniform: true, txCount: 1,
		timeout: 700 * time.Millisecond, rdelay: 8,
	})
	c.run(2 * time.Second)
	all := []types.NodeID{0, 1, 2, 3, 4}
	submitReconfig(c, all, signedReconfig(c, types.ReconfigLeave, 4, ""))
	c.run(8 * time.Second)

	tbl := c.nodes[0].EpochTable()
	last := tbl[len(tbl)-1]
	if last.Epoch != 1 || len(last.Members) != 4 {
		t.Fatalf("epoch table head %+v, want epoch 1 with 4 members", last)
	}
	fence := last.StartRound
	for _, cv := range c.orders[0] {
		if cv.Vertex.Source == 4 && cv.Vertex.Round >= fence {
			t.Fatalf("left party's round-%d vertex ordered past the fence %d", cv.Vertex.Round, fence)
		}
	}
	// Progress continues in the shrunken epoch, and the observer still
	// tracks rounds past the fence.
	if got := c.nodes[0].Round(); got < fence+5 {
		t.Fatalf("cluster stalled near the fence: round %d, fence %d", got, fence)
	}
	if got := c.nodes[4].Round(); got < fence {
		t.Fatalf("left party stopped tracking: round %d, fence %d", got, fence)
	}
	c.checkConsistentOrder(nil)
}

// TestEpochClanResample: in multi-clan mode the fence re-runs the clan
// sampler over the new member set; every node derives identical clans, and
// the join is assigned to a clan (so its payloads have an executing clan).
func TestEpochClanResample(t *testing.T) {
	n := 9
	members := []types.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	clans := [][]types.NodeID{{0, 1, 2, 3}, {4, 5, 6, 7}}
	c := newTCluster(t, n, topt{
		mode: ModeMultiClan, clans: clans, uniform: true, txCount: 1,
		timeout: 700 * time.Millisecond, members: members, rdelay: 8,
	})
	c.run(2 * time.Second)
	submitReconfig(c, members, signedReconfig(c, types.ReconfigJoin, 8, "sim://8"))
	c.run(10 * time.Second)

	ref := c.nodes[0].EpochTable()
	refLast := ref[len(ref)-1]
	if refLast.Epoch != 1 || len(refLast.Members) != 9 {
		t.Fatalf("epoch head %+v, want epoch 1 with 9 members", refLast)
	}
	if len(refLast.Clans) != 2 {
		t.Fatalf("epoch 1 has %d clans, want 2", len(refLast.Clans))
	}
	found := false
	for _, clan := range refLast.Clans {
		for _, id := range clan {
			if id == 8 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("joined party not assigned to any epoch-1 clan")
	}
	for i := 1; i < n; i++ {
		tbl := c.nodes[i].EpochTable()
		last := tbl[len(tbl)-1]
		if last.Epoch != refLast.Epoch || last.StartRound != refLast.StartRound {
			t.Fatalf("node %d epoch head (%d,%d) != node 0 (%d,%d)",
				i, last.Epoch, last.StartRound, refLast.Epoch, refLast.StartRound)
		}
		for ci := range refLast.Clans {
			if len(last.Clans[ci]) != len(refLast.Clans[ci]) {
				t.Fatalf("node %d clan %d size differs", i, ci)
			}
			for k := range refLast.Clans[ci] {
				if last.Clans[ci][k] != refLast.Clans[ci][k] {
					t.Fatalf("node %d clan %d differs from node 0: %v vs %v",
						i, ci, last.Clans[ci], refLast.Clans[ci])
				}
			}
		}
	}
	c.checkConsistentOrder(nil)
}

// TestEpochFloodViewStateBounded extends the TestFloodFarFutureViewStateBounded
// family with the epoch dimension: after crossing a fence, a Byzantine party
// floods (a) validly signed far-future view-change traffic and (b) vertices
// declaring a bogus epoch for in-window future rounds. Neither may grow the
// round-keyed view records, the RBC table, or the epoch table — pre-fence
// state must not pin memory either (the epochs table stays trimmed to the
// retention window).
func TestEpochFloodViewStateBounded(t *testing.T) {
	n := 5
	members := []types.NodeID{0, 1, 2, 3}
	c := newTCluster(t, n, topt{
		mode: ModeBaseline, uniform: true, txCount: 1,
		timeout: 700 * time.Millisecond, members: members, rdelay: 8,
	})
	c.run(2 * time.Second)
	submitReconfig(c, members, signedReconfig(c, types.ReconfigJoin, 4, "sim://4"))
	c.run(8 * time.Second)
	node := c.nodes[0]
	if node.CurrentEpoch() != 1 {
		t.Fatalf("fence not crossed: epoch %d", node.CurrentEpoch())
	}

	ep := c.net.Endpoint(1)
	base := node.Round()
	var floodPos []types.Position
	for i := 0; i < 200; i++ {
		r := types.Round(10000 + i*37)
		ep.Send(0, &types.ViewVoteMsg{Vote: types.ViewVote{
			Round: r, Voter: 1, Sig: crypto.Sign(&c.keys[1], viewCtx(r, false)),
		}})
		ep.Send(0, &types.ViewVoteMsg{NoVote: true, Vote: types.ViewVote{
			Round: r, Voter: 1, Sig: crypto.Sign(&c.keys[1], viewCtx(r, true)),
		}})
		// Wrong-epoch vertices for in-window rounds: rejected before any
		// instance state is allocated.
		fr := base + 100 + types.Round(i%20)
		floodPos = append(floodPos, types.Position{Round: fr, Source: 1})
		ep.Send(0, &types.ValMsg{Vertex: &types.Vertex{
			Round: fr, Source: 1, Epoch: 7,
		}})
	}
	c.run(500 * time.Millisecond)

	bound := 4*node.cfg.GCDepth + 8
	if got := len(node.views); got > bound {
		t.Fatalf("views grew to %d (bound %d) under post-fence flood", got, bound)
	}
	if got := len(node.epochs); got > 2 {
		t.Fatalf("epoch table grew to %d entries (want <= 2: old epoch trimmed at the horizon, or retained while in-window)", got)
	}
	for _, pos := range floodPos {
		if pos.Round > node.Round() && node.rbc.Get(pos) != nil {
			t.Fatalf("wrong-epoch vertex at %v allocated instance state", pos)
		}
	}
}
