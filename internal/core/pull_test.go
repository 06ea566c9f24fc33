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
		case *types.BlockReqMsg:
			pulls[from]++
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
	if c.nodes[victim].Metrics.Timeouts != 0 {
		t.Fatal("recovery went through a round timeout, not the retried pull")
	}
	c.checkConsistentOrder(nil)
}
