package core

import (
	"slices"
	"testing"
	"time"

	"clanbft/internal/faults"
	"clanbft/internal/types"
)

// TestDeadMemberProbedOncePerTimeout stops a member after warm-up and lets
// the survivors stall through its rounds. Nothing proves that any of its
// later positions exists, so each pull the round timer's re-drive starts for
// one is a single probe: a survivor sends at most one VtxReq for them per
// timer fire, where a pull retried every pullRetry sent RoundTimeout/pullRetry
// per stall and kept every stalled position asking until GC.
func TestDeadMemberProbedOncePerTimeout(t *testing.T) {
	const n, dead = 4, 3
	fnet := faults.NewNet(n, 1, nil)
	var crashed types.Round // 0 until the member stops
	probes, pulls := make([]int, n), make([]int, n)
	fnet.SetTap(func(from, to types.NodeID, m types.Message) {
		switch msg := m.(type) {
		case *types.VtxReqMsg:
			pulls[from]++
			if crashed > 0 && msg.Pos.Source == dead && msg.Pos.Round > crashed {
				probes[from]++
			}
		}
	})
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, timeout: time.Second, fnet: fnet})
	fires := make([]int, n)
	for i, nd := range c.nodes {
		fired := nd.roundFired
		nd.roundFired = func() { fires[i]++; fired() }
	}
	c.run(2 * time.Second)
	c.nodes[dead].Stop()
	crashed = c.nodes[dead].round
	fires0, pulls0, counted0 := slices.Clone(fires), slices.Clone(pulls), make([]uint64, n)
	for i, nd := range c.nodes {
		counted0[i] = nd.PipelineSnapshot().Counter("rbc.pulls")
	}
	c.run(10 * time.Second)
	for i, nd := range c.nodes[:dead] {
		fired := fires[i] - fires0[i]
		counted := nd.PipelineSnapshot().Counter("rbc.pulls") - counted0[i]
		t.Logf("node %d: %d round-timer fires, %d probes of member %d's positions, rbc.pulls +%d",
			i, fired, probes[i], dead, counted)
		if fired < 4 {
			t.Fatalf("node %d: only %d round-timer fires in 10 s with member %d down", i, fired, dead)
		}
		if probes[i] == 0 || probes[i] > fired {
			t.Errorf("node %d sent %d pulls for member %d's positions over %d round-timer fires, want 1..%d",
				i, probes[i], dead, fired, fired)
		}
		if sent := pulls[i] - pulls0[i]; counted != uint64(sent) {
			t.Errorf("node %d: rbc.pulls grew by %d, but %d pulls went on the wire", i, counted, sent)
		}
	}
	c.checkConsistentOrder(map[types.NodeID]bool{dead: true})
}

// TestLostPositionPulledUntilDelivered drops, toward one node, the VAL and
// every ECHO frame for one position, and the replies to its pulls for a
// while. The children that reference the position are the victim's only
// evidence of it; its pull must be retried every pullRetry, not once per
// round timeout, and deliver the position as soon as a reply gets through.
func TestLostPositionPulledUntilDelivered(t *testing.T) {
	const n, victim = 4, 2
	lost := types.Position{Round: 5, Source: 1}
	answered := false // replies to the victim's pulls get through
	fnet := faults.NewNet(n, 7, nil)
	fnet.Apply(0, faults.Event{Kind: faults.KindDrop, From: faults.All, To: victim, P: 1,
		Match: func(m types.Message) bool {
			switch msg := m.(type) {
			case *types.ValMsg:
				return msg.Vertex.Pos() == lost
			case *types.EchoMsg:
				return slices.ContainsFunc(msg.Entries, func(e types.EchoEntry) bool { return e.Pos == lost })
			case *types.VtxRspMsg:
				return !answered && msg.Vertex.Pos() == lost
			}
			return false
		}})
	var c *tcluster
	var sentAt []time.Duration
	fnet.SetTap(func(from, to types.NodeID, m types.Message) {
		if req, ok := m.(*types.VtxReqMsg); ok && from == victim && req.Pos == lost {
			sentAt = append(sentAt, c.net.Now())
		}
	})
	c = newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, fnet: fnet})
	const blocked = 2 * time.Second
	c.run(blocked)
	answered = true
	c.run(time.Second)
	t.Logf("victim pulled %v at %v", lost, sentAt)
	if len(sentAt) < 2 {
		t.Fatalf("victim pulled %v %d times", lost, len(sentAt))
	}
	if span := blocked - sentAt[0]; len(sentAt) < int(span/pullRetry) {
		t.Fatalf("victim pulled %v %d times in the %v its replies were dropped, want one per %v",
			lost, len(sentAt), span, pullRetry)
	}
	for i := 1; i < len(sentAt); i++ {
		if gap := sentAt[i] - sentAt[i-1]; gap < pullRetry {
			t.Fatalf("pulls %d and %d of %v are %v apart, under pullRetry", i-1, i, lost, gap)
		}
	}
	in := c.nodes[victim].rbc.Get(lost)
	if in == nil || !in.Delivered() || in.Cert().Bitmap == nil {
		t.Fatalf("victim did not deliver %v by certified pull", lost)
	}
	if c.nodes[victim].MetricsSnapshot().Timeouts != 0 {
		t.Fatal("recovery went through a round timeout, not the retried pull")
	}
	c.checkConsistentOrder(nil)
}

// TestDeliveredVertexTakesPulledBlock: on a stepped cluster, member 3 gets
// the VAL of one position without its block, delivers the vertex on the other
// members' echoes, and so lacks a block it is to hold. Its pull is the same
// VtxReq as for a vertex, sent to a clan peer, and the reply's block is taken
// for the vertex already delivered: cached at once, then executed in order.
// Every other pull reply for the position toward member 3 is dropped, so the
// block comes in the reply the test hands it, or not at all.
func TestDeliveredVertexTakesPulledBlock(t *testing.T) {
	const victim, rounds = types.NodeID(3), 10
	lost := types.Position{Round: 2, Source: 1}
	for _, seed := range []int64{1, 2} {
		var asked []types.NodeID // clan peers the victim pulled lost from
		handed := false
		c := newTCluster(t, 4, topt{stepped: true, txCount: 1})
		c.runTo(seed, rounds, func(p *packet) bool {
			if in := c.nodes[victim].rbc.Get(lost); !handed && in != nil && in.Delivered() {
				handed = true
				if cachedAt(c.nodes[victim], lost) {
					t.Fatalf("seed %d: the victim holds the block it never received", seed)
				}
				holder := c.nodes[lost.Source]
				hin := holder.rbc.Get(lost)
				c.nodes[victim].step(msgIn(lost.Source, &types.VtxRspMsg{Vertex: hin.Vertex(),
					Cert: hin.CertMsg(lost), Block: holder.blockFor(hin.Vertex().BlockDigest)}))
				if !cachedAt(c.nodes[victim], lost) {
					t.Fatalf("seed %d: a pull reply's block for a delivered vertex was dropped", seed)
				}
			}
			if p.to != victim {
				if req, ok := p.m.(*types.VtxReqMsg); ok && p.from == victim && req.Pos == lost {
					asked = append(asked, p.to)
				}
				return true
			}
			switch m := p.m.(type) {
			case *types.ValMsg:
				if m.Vertex.Pos() == lost {
					p.m = &types.ValMsg{Vertex: m.Vertex, Sig: m.Sig}
				}
			case *types.VtxRspMsg:
				return m.Vertex.Pos() != lost
			}
			return true
		})
		if !handed {
			t.Fatalf("seed %d: the victim never delivered %v", seed, lost)
		}
		if len(asked) == 0 {
			t.Fatalf("seed %d: the victim never pulled the block of %v", seed, lost)
		}
		executed := false
		for _, cv := range c.orders[victim] {
			if cv.Vertex.Pos() == lost {
				executed = true
				if cv.Block == nil || cv.Block.DigestCached() != cv.Vertex.BlockDigest {
					t.Fatalf("seed %d: the victim executed %v without its block", seed, lost)
				}
			}
		}
		if !executed {
			t.Fatalf("seed %d: the victim never executed %v", seed, lost)
		}
		c.checkConsistentOrder(nil)
	}
}

// TestBlockPulledPastPeersHorizon: in a single clan of 3 out of 7, member 2
// loses the VAL of a clan position, and every reply carrying that position's
// block toward it is dropped. It delivers the vertex from outside the clan,
// without the block, and keeps pulling the block from its clan peers while
// their horizon passes the position and collects its instance. Its own
// horizon waits for the block; once replies get through, the peers answer
// from their stores and member 2 executes the position with its block. The
// store answers a party outside the clan with nothing.
func TestBlockPulledPastPeersHorizon(t *testing.T) {
	const n, victim = 7, 2
	lost := types.Position{Round: 5, Source: 1}
	clan := []types.NodeID{0, 1, 2}
	answered := false // replies carrying lost's block get through
	fnet := faults.NewNet(n, 1, nil)
	fnet.Apply(0, faults.Event{Kind: faults.KindDrop, From: faults.All, To: victim, P: 1,
		Match: func(m types.Message) bool {
			switch msg := m.(type) {
			case *types.ValMsg:
				return msg.Vertex.Pos() == lost
			case *types.VtxRspMsg:
				return !answered && msg.Block != nil && msg.Vertex.Pos() == lost
			}
			return false
		}})
	var replies []*types.VtxRspMsg // from member 0, while the test asks it
	asking := false
	fnet.SetTap(func(from, _ types.NodeID, m types.Message) {
		if rsp, ok := m.(*types.VtxRspMsg); ok && asking && from == 0 {
			replies = append(replies, rsp)
		}
	})
	c := newTCluster(t, n, topt{mode: ModeSingleClan, clans: [][]types.NodeID{clan}, uniform: true,
		fnet: fnet, store: true, gcDepth: 4})
	c.run(3 * time.Second)
	if in := c.nodes[victim].rbc.Get(lost); in == nil || !in.Delivered() || cachedAt(c.nodes[victim], lost) {
		t.Fatalf("member %d should have delivered %v without its block", victim, lost)
	}
	for _, id := range clan {
		if id != victim && c.nodes[id].rbc.Get(lost) != nil {
			t.Fatalf("member %d's horizon did not pass %v (at %d)", id, lost, c.nodes[id].dag.MinRound())
		}
	}
	// Past the horizon the store answers a clan member with the vertex and
	// the block, and a party outside the clan with nothing.
	asking = true
	c.nodes[0].step(msgIn(3, &types.VtxReqMsg{Pos: lost, Have: lost.Round}))
	if len(replies) != 0 {
		t.Fatalf("a party outside the clan got %d replies for collected %v", len(replies), lost)
	}
	c.nodes[0].step(msgIn(1, &types.VtxReqMsg{Pos: lost, Have: lost.Round}))
	if len(replies) != 1 || replies[0].Vertex.Pos() != lost || replies[0].Block == nil ||
		replies[0].Block.DigestCached() != replies[0].Vertex.BlockDigest {
		t.Fatalf("a clan member's pull of collected %v got %v, want its vertex and block", lost, replies)
	}
	asking = false
	answered = true
	c.run(time.Second)
	executed := false
	for _, cv := range c.orders[victim] {
		if cv.Vertex.Pos() == lost {
			executed = cv.Block != nil && cv.Block.DigestCached() == cv.Vertex.BlockDigest
		}
	}
	if !executed {
		t.Fatalf("member %d did not execute %v with its block once replies got through", victim, lost)
	}
	if c.nodes[victim].dag.MinRound() <= lost.Round {
		t.Fatalf("member %d's horizon stayed at %d", victim, c.nodes[victim].dag.MinRound())
	}
	c.checkConsistentOrder(nil)
}

// TestObserverRetriesParentOfDeliveredChild: an observer echoes nothing, so
// no child's echo ever waits on a position in its RBC rule, and the rule has
// no evidence of a position whose VAL, ECHO frames and pull replies toward
// the observer are all dropped for a while. The children it delivers do
// reference the position, and a delivered child is certified, which proves
// its parent exists: the pull for the parent must be retried every
// pullRetry while they wait, not sent once, so the observer orders what the
// members order once replies get through.
func TestObserverRetriesParentOfDeliveredChild(t *testing.T) {
	const n, observer = 5, 4
	lost := types.Position{Round: 3, Source: 1}
	answered := false // the position reaches the observer again
	fnet := faults.NewNet(n, 7, nil)
	fnet.Apply(0, faults.Event{Kind: faults.KindDrop, From: faults.All, To: observer, P: 1,
		Match: func(m types.Message) bool {
			if answered {
				return false
			}
			switch msg := m.(type) {
			case *types.ValMsg:
				return msg.Vertex.Pos() == lost
			case *types.EchoMsg:
				return slices.ContainsFunc(msg.Entries, func(e types.EchoEntry) bool { return e.Pos == lost })
			case *types.VtxRspMsg:
				return msg.Vertex.Pos() == lost
			}
			return false
		}})
	pulls := 0
	fnet.SetTap(func(from, _ types.NodeID, m types.Message) {
		if req, ok := m.(*types.VtxReqMsg); ok && from == observer && req.Pos == lost {
			pulls++
		}
	})
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, fnet: fnet,
		members: []types.NodeID{0, 1, 2, 3}})
	const blocked = 2 * time.Second
	c.run(blocked)
	during := pulls
	answered = true
	c.run(3 * time.Second)
	t.Logf("observer pulled %v %d times while blocked, %d in all; ordered %d, member 0 %d",
		lost, during, pulls, len(c.orders[observer]), len(c.orders[0]))
	if want := int(blocked/pullRetry) / 2; during < want {
		t.Fatalf("observer pulled %v %d times in the %v its replies were dropped, want at least %d",
			lost, during, blocked, want)
	}
	if !c.nodes[observer].dag.Has(lost) {
		t.Fatalf("observer never inserted %v", lost)
	}
	if got, want := len(c.orders[observer]), len(c.orders[0]); got < want*9/10 {
		t.Fatalf("observer ordered %d vertices, member 0 %d", got, want)
	}
	c.checkConsistentOrder(nil)
}
