package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/faults"
	"clanbft/internal/types"
)

// The echo hold: at its frontier round a node keeps its queued echoes until
// the round's last expected VAL is in — a member is expected when its vertex
// of the round before delivered here — and anchorWait after the round's first
// held drain at the latest; what it holds after the round's 2f+1-th VAL comes
// out of that round's anchor hold. These tests pin when it holds, for whom,
// for how long, and what it leaves the anchor hold.

// frontier is node 0 of n alone on the bed, started and brought to round 1
// one message per drain, with every round-0 vertex delivered but those of the
// late sources. It returns the bed with nothing on the wire, and the round-0
// vertices node 0 delivered.
func frontier(t *testing.T, n int, late ...types.NodeID) (*tcluster, []types.VertexRef) {
	c := startedNode(t, n)
	node := c.nodes[0]
	vs := []*types.Vertex{node.rbc.Get(at(0, 0)).Vertex()}
	for src := types.NodeID(1); int(src) < n; src++ {
		if !slices.Contains(late, src) {
			v, val := round0(c.keys, src)
			vs = append(vs, v)
			c.inject(src, 0, val)
			c.drain(0)
		}
	}
	for voter := types.NodeID(1); int(voter) < n; voter++ {
		var es []types.EchoEntry
		for _, v := range vs {
			if v.Source != voter {
				es = append(es, types.EchoEntry{Pos: v.Pos(), Digest: v.DigestCached()})
			}
		}
		c.inject(voter, 0, signedEchoes(&c.keys[voter], voter, es...))
		c.drain(0)
	}
	if node.round == 0 {
		c.advance(anchorWait) // round 0's anchor hold waits for the late
	}
	if node.round != 1 {
		t.Fatalf("node 0 at round %d, want 1", node.round)
	}
	c.drain(0) // its round-1 VAL
	c.inFlight = nil
	var r0 []types.VertexRef
	for _, v := range vs {
		r0 = append(r0, v.Ref())
	}
	return c, r0
}

// val1 returns src's signed round-1 VAL, strong-edged to r0.
func val1(c *tcluster, r0 []types.VertexRef, src types.NodeID) *types.ValMsg {
	v := &types.Vertex{Round: 1, Source: src, CreatedAt: 1 + int64(src), StrongEdges: r0}
	return &types.ValMsg{Vertex: v, Sig: crypto.Sign(&c.keys[src], vertexCtx(new(ctxBuf), v.DigestCached()))}
}

// echoes takes the ECHO frames node 0 sent node 1 off the wire, as lists of
// positions.
func echoes(c *tcluster) (fs [][]types.Position) {
	for _, e := range echoFrames(c.take(1)) {
		var ps []types.Position
		for _, en := range e.Entries {
			ps = append(ps, en.Pos)
		}
		fs = append(fs, ps)
	}
	return fs
}

func at(r types.Round, src types.NodeID) types.Position { return types.Position{Round: r, Source: src} }

// TestEchoNotHeldBelowFrontier: an echo for a round below the node's frontier
// leaves at the end of its drain, and takes a held frontier echo along.
func TestEchoNotHeldBelowFrontier(t *testing.T) {
	// Node 3's round-0 VAL is late: round 1 does not wait for node 3.
	c, _ := frontier(t, 4, 3)
	_, late := round0(c.keys, 3)
	c.inject(3, 0, late)
	c.drain(0)
	if got := echoes(c); fmt.Sprint(got) != fmt.Sprint([][]types.Position{{at(0, 3)}}) {
		t.Fatalf("a round-0 echo at round 1 left as %v, want one frame at its drain's end", got)
	}

	c, r0 := frontier(t, 4, 3)
	node := c.nodes[0]
	c.inject(1, 0, val1(c, r0, 1))
	c.drain(0)
	if got := echoes(c); len(got) != 0 || node.echoTimer.IsZero() {
		t.Fatalf("node 1's round-1 echo left as %v while node 2's VAL is out, want it held", got)
	}
	c.inject(3, 0, late)
	c.drain(0)
	if got := echoes(c); fmt.Sprint(got) != fmt.Sprint([][]types.Position{{at(1, 1), at(0, 3)}}) || !node.echoTimer.IsZero() {
		t.Fatalf("a round-0 echo joining a held round-1 one left as %v (hold running: %v), want both in one frame at once",
			got, !node.echoTimer.IsZero())
	}
}

// TestEchoHeldAtFrontierBoundedByAnchorWait is TestEchoNotHeldWhileIdle at the
// frontier round: echoes queued while a round-1 VAL is missing stay queued
// across drain ends and leave by themselves anchorWait after the first held
// drain; a missing VAL that arrives meanwhile — one the verify pool was still
// checking when the drain ended — is waited for.
func TestEchoHeldAtFrontierBoundedByAnchorWait(t *testing.T) {
	const n = 4
	t.Run("missing VAL", func(t *testing.T) {
		c, r0 := frontier(t, n)
		for src := types.NodeID(1); src <= 2; src++ {
			c.inject(src, 0, val1(c, r0, src))
			c.drain(0)
		}
		c.advance(anchorWait - 1)
		if got := echoes(c); len(got) != 0 {
			t.Fatalf("round-1 echoes left as %v before anchorWait (%v) was up, want them held", got, anchorWait)
		}
		c.advance(1)
		if got := echoes(c); fmt.Sprint(got) != fmt.Sprint([][]types.Position{{at(1, 1), at(1, 2)}}) {
			t.Fatalf("after anchorWait the held echoes left as %v, want one frame with the echoes of nodes 1 and 2", got)
		}
	})
	t.Run("VAL in the verify pool", func(t *testing.T) {
		c, r0 := frontier(t, n)
		c.inject(1, 0, val1(c, r0, 1))
		c.inject(2, 0, val1(c, r0, 2))
		c.drain(0) // node 3's VAL is still being verified
		c.advance(anchorWait / 10)
		if got := echoes(c); len(got) != 0 {
			t.Fatalf("round-1 echoes left as %v while node 3's VAL was being verified, want them held", got)
		}
		c.inject(3, 0, val1(c, r0, 3))
		c.drain(0)
		if got := echoes(c); len(got) != 1 || len(got[0]) != n-1 {
			t.Fatalf("after the verdict the echoes left as %v, want one frame of all %d", got, n-1)
		}
	})
}

// echoTap counts, per sender and round, the ECHO entries and frames on the
// wire (once per receiver, as TestRBCMessageComplexity does) and the VALs.
type echoTap struct {
	vals, entries, frames map[[2]int]int
	other                 map[types.MsgKind]int
	sent                  int // ECHO frames, once per recipient
}

func newEchoTap(fnet *faults.Net) *echoTap {
	tp := &echoTap{vals: map[[2]int]int{}, entries: map[[2]int]int{}, frames: map[[2]int]int{}, other: map[types.MsgKind]int{}}
	seen := map[types.Round]bool{}
	fnet.SetTap(func(from, to types.NodeID, m types.Message) {
		switch msg := m.(type) {
		case *types.ValMsg:
			tp.vals[[2]int{int(from), int(msg.Vertex.Round)}]++
		case *types.EchoMsg:
			tp.sent++
			clear(seen)
			for _, e := range msg.Entries {
				k := [2]int{int(from), int(e.Pos.Round)}
				tp.entries[k]++
				if !seen[e.Pos.Round] {
					seen[e.Pos.Round] = true
					tp.frames[k]++
				}
			}
		default:
			tp.other[m.Kind()]++
		}
	})
	return tp
}

// TestEchoFramePerRound: n=7, fault-free, 200 rounds on 50 ms links that vary
// by 1 ms either way: every node echoes each round's n−1 positions to n−1
// peers, exactly, in at most 1.1 frames a round on average. Each node's
// rbc.echo_frames counter reads the frames it sent.
func TestEchoFramePerRound(t *testing.T) {
	const n, rounds = 7, 200
	fnet := faults.NewNet(n, 1, nil)
	tp := newEchoTap(fnet)
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, jitter: 0.02, txCount: 1, fnet: fnet})
	for c.minRound() < rounds+2 {
		c.run(time.Second)
	}
	if len(tp.other) != 0 {
		t.Fatalf("fault-free run sent messages outside VAL/ECHO: %v", tp.other)
	}
	frames := 0
	for r := 1; r <= rounds; r++ {
		for i := 0; i < n; i++ {
			k := [2]int{i, r}
			if tp.vals[k] != n-1 || tp.entries[k] != (n-1)*(n-1) {
				t.Fatalf("round %d node %d sent %d VAL + %d echo entries, want %d + %d", r, i, tp.vals[k], tp.entries[k], n-1, (n-1)*(n-1))
			}
			frames += tp.frames[k]
		}
	}
	perRound := float64(frames) / float64((n-1)*n*rounds)
	t.Logf("%.3f ECHO frames per node per round over %d rounds (parent: %d)", perRound, rounds, n-1)
	counted := 0
	for _, nd := range c.nodes {
		counted += int(nd.PipelineSnapshot().Counters["rbc.echo_frames"])
	}
	if counted*(n-1) != tp.sent {
		t.Errorf("rbc.echo_frames sums to %d frames, the wire carried %d to %d peers each", counted, tp.sent, n-1)
	}
	if perRound > 1.1 {
		t.Fatalf("%.3f ECHO frames per node per round, want at most 1.1", perRound)
	}
	c.checkConsistentOrder(nil)
}

// minRound is the lowest round any node of the cluster is at.
func (c *tcluster) minRound() types.Round {
	low := c.nodes[0].Round()
	for _, nd := range c.nodes[1:] {
		low = min(low, nd.Round())
	}
	return low
}

// TestEchoHoldWaitsOnlyForExpected: a member is waited for in the round after
// its last delivered vertex and never again; a VAL later than AnchorWait gets
// a frame of its own behind the others, which leave at the cap; and the echo
// hold takes nothing from the round's anchor hold, which still catches that
// VAL's vertex.
func TestEchoHoldWaitsOnlyForExpected(t *testing.T) {
	t.Run("undelivered member", func(t *testing.T) {
		// Node 3's round-0 vertex never delivered at node 0, so its round-1
		// VAL is not waited for: the others' echoes leave with their drain.
		c, r0 := frontier(t, 4, 3)
		c.inject(1, 0, val1(c, r0, 1))
		c.inject(2, 0, val1(c, r0, 2))
		c.drain(0)
		if got := echoes(c); fmt.Sprint(got) != fmt.Sprint([][]types.Position{{at(1, 1), at(1, 2)}}) || !c.nodes[0].echoTimer.IsZero() {
			t.Fatalf("with node 3 undelivered in round 0, round-1 echoes left as %v (hold running: %v), want one frame at the drain's end",
				got, !c.nodes[0].echoTimer.IsZero())
		}
	})
	t.Run("crashed member", func(t *testing.T) {
		const n, down = 7, 6
		fnet := faults.NewNet(n, 1, nil)
		c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, timeout: 300 * time.Millisecond, fnet: fnet})
		c.run(time.Second)
		fnet.Apply(c.net.Now(), isolate(n, down))
		nd, from := c.nodes[0], c.nodes[0].Round()
		waited := map[types.Round]bool{} // rounds node 0 held echoes for node 6 alone
		for end := c.net.Now() + 3*time.Second; c.net.Now() < end; {
			c.run(250 * time.Microsecond)
			r := nd.round
			if nd.echoTimer.IsZero() || waited[r] {
				continue
			}
			for src := types.NodeID(0); src < down; src++ {
				if v := nd.rbc.Get(at(r, src)); v == nil || !v.HasVal() {
					r = 0
				}
			}
			if r == 0 {
				continue
			}
			if p := nd.rbc.Get(at(r-1, down)); p == nil || !p.Delivered() {
				t.Fatalf("round %d: node 0 held its echoes for node 6, which delivered nothing in round %d", r, r-1)
			}
			waited[r] = true
		}
		if got := nd.Round() - from; got < 10 {
			t.Fatalf("%d rounds in 3 s with one member down", got)
		}
		if len(waited) != 1 {
			t.Fatalf("node 0 waited for node 6 alone in rounds %v, want the one after its last delivered vertex", waited)
		}
	})
	t.Run("late VAL", func(t *testing.T) {
		// Round 10 (primary: node 2): node 3's VAL reaches node 0 1 ms after
		// the others and nodes 1 and 2 9.5 ms after them.
		const n, late = 4, types.Round(10)
		isLate := func(m types.Message) bool {
			v, ok := m.(*types.ValMsg)
			return ok && v.Vertex.Round == late
		}
		fnet := faults.NewNet(n, 1, nil)
		fnet.Apply(0, faults.Event{Kind: faults.KindDelay, From: 3, To: 0, Delay: time.Millisecond, Match: isLate})
		fnet.Apply(0, faults.Event{Kind: faults.KindDelay, From: 3, To: 1, Delay: 9500 * time.Microsecond, Match: isLate})
		fnet.Apply(0, faults.Event{Kind: faults.KindDelay, From: 3, To: 2, Delay: 9500 * time.Microsecond, Match: isLate})
		var sent [][]types.Position // node 1's round-10 ECHO frames
		fnet.SetTap(func(from, to types.NodeID, m types.Message) {
			if e, ok := m.(*types.EchoMsg); ok && from == 1 && to == 0 && e.Entries[0].Pos.Round == late {
				var ps []types.Position
				for _, en := range e.Entries {
					ps = append(ps, en.Pos)
				}
				slices.SortFunc(ps, func(a, b types.Position) int { return int(a.Source) - int(b.Source) })
				sent = append(sent, ps)
			}
		})
		c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, fnet: fnet})
		// What each node held while at round 10: its echo holds, and the hold
		// of its round-11 proposal.
		held := func(nd *Node) [2]time.Duration {
			s := nd.PipelineSnapshot()
			return [2]time.Duration{s.Hist("rbc.echo_hold").Sum, s.Hist("order.anchor_hold").Sum}
		}
		var in, out [n][2]time.Duration
		for c.minRound() <= late {
			c.run(250 * time.Microsecond)
			for i, nd := range c.nodes {
				if nd.round < late {
					in[i] = held(nd)
				} else if nd.round == late {
					out[i] = held(nd)
				}
			}
		}
		for i, nd := range c.nodes {
			out[i] = held(nd) // the anchor hold ends as the node leaves the round
			if nd.round != late+1 {
				t.Fatalf("node %d at round %d, stepped past %d", i, nd.round, late+1)
			}
		}
		e0, a0, e1 := out[0][0]-in[0][0], out[0][1]-in[0][1], out[1][0]-in[1][0]
		wait := anchorWait
		t.Logf("round %d: node 1 held its echoes %v; node 0 held its echoes %v, then its proposal %v", late, e1, e0, a0)
		if fmt.Sprint(sent) != fmt.Sprint([][]types.Position{{at(late, 0), at(late, 2)}, {at(late, 3)}}) || e1 != wait {
			t.Fatalf("node 1 held %v and sent round %d as %v, want nodes 0 and 2 at the cap (%v), node 3 behind them",
				e1, late, sent, wait)
		}
		// Node 0's echo hold ended with node 3's VAL; its anchor hold then
		// waits for node 3's vertex, which nodes 1 and 2 echoed 4.5 ms after
		// the cap, and catches it.
		own := c.nodes[0].rbc.Get(at(late+1, 0))
		if e0 != time.Millisecond || a0 <= 0 || a0 >= wait || own == nil || !own.Vertex().HasStrongEdgeTo(at(late, 3)) {
			t.Fatalf("node 0 held its echoes %v and its proposal %v (AnchorWait %v); want 1ms, then a proposal that waited for node 3's vertex and votes for it",
				e0, a0, wait)
		}
	})
}
