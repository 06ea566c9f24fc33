package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/faults"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// The echo hold: at its frontier round a node keeps its queued echoes until
// the round's last expected VAL is in — a member is expected when its vertex
// of the round before delivered here — and AnchorWait after the round's first
// held drain at the latest; what it holds after the round's 2f+1-th VAL comes
// out of that round's anchor hold. These tests pin when it holds, for whom,
// for how long, what it leaves the anchor hold, and that AnchorWait < 0 turns
// it off.

// stepClock is a virtual clock a test moves by hand: advance fires the timers
// it passes, in deadline order.
type stepClock struct {
	now    time.Duration
	timers []*stepTimer
}

type stepTimer struct {
	at   time.Duration
	fn   func()
	dead bool
}

func (t *stepTimer) Stop() bool { live := !t.dead; t.dead = true; return live }

func (c *stepClock) Now() time.Duration   { return c.now }
func (c *stepClock) Charge(time.Duration) {}

func (c *stepClock) After(d time.Duration, fn func()) transport.Timer {
	t := &stepTimer{at: c.now + d, fn: fn}
	c.timers = append(c.timers, t)
	return t
}

func (c *stepClock) advance(d time.Duration) {
	end := c.now + d
	for {
		var next *stepTimer
		for _, t := range c.timers {
			if !t.dead && t.at <= end && (next == nil || t.at < next.at) {
				next = t
			}
		}
		if next == nil {
			break
		}
		next.dead, c.now = true, next.at
		next.fn()
	}
	c.now = end
}

// frontierNode is node 0 of n driven by hand on a step clock, one message per
// drain, brought to round 1 with every round-0 vertex delivered but those of
// the late sources.
type frontierNode struct {
	t    *testing.T
	keys []crypto.KeyPair
	node *Node
	ep   *recEndpoint
	clk  *stepClock
	r0   []types.VertexRef // the round-0 vertices node 0 delivered
	sent int               // frames on the wire when it reached round 1
}

func newFrontierNode(t *testing.T, n int, wait time.Duration, late ...types.NodeID) *frontierNode {
	keys := crypto.GenerateKeys(n, 5)
	f := &frontierNode{t: t, keys: keys, ep: &recEndpoint{}, clk: &stepClock{}}
	f.node = New(Config{Self: 0, N: n, Mode: ModeBaseline, Key: &keys[0], Reg: crypto.NewRegistry(keys, true),
		AnchorWait: wait, RoundTimeout: time.Hour}, f.ep, f.clk)
	f.node.Start()
	own := f.ep.out[0].(*types.ValMsg)
	f.deliver(0, own) // an endpoint delivers a broadcast to its sender too
	vs := []*types.Vertex{own.Vertex}
	for src := types.NodeID(1); int(src) < n; src++ {
		if !slices.Contains(late, src) {
			v, val := round0(keys, src)
			vs = append(vs, v)
			f.deliver(src, val)
		}
	}
	for voter := types.NodeID(1); int(voter) < n; voter++ {
		var es []types.EchoEntry
		for _, v := range vs {
			if v.Source != voter {
				es = append(es, types.EchoEntry{Pos: v.Pos(), Digest: v.DigestCached()})
			}
		}
		f.deliver(voter, signedEchoes(&keys[voter], voter, es...))
	}
	if f.node.round == 0 && f.node.cfg.AnchorWait > 0 {
		f.clk.advance(f.node.cfg.AnchorWait) // round 0's anchor hold waits for the late
	}
	if f.node.round != 1 {
		t.Fatalf("node 0 at round %d, want 1", f.node.round)
	}
	for _, m := range f.ep.out {
		if val, ok := m.(*types.ValMsg); ok && val.Vertex.Round == 1 {
			f.deliver(0, val)
		}
	}
	for _, v := range vs {
		f.r0 = append(f.r0, v.Ref())
	}
	f.sent = len(f.ep.out)
	return f
}

// deliver hands m to the node as a drain of its own.
func (f *frontierNode) deliver(from types.NodeID, m types.Message) {
	f.node.handle(from, m)
	f.ep.drained()
}

// val1 returns src's signed round-1 VAL, strong-edged to every round-0
// vertex node 0 delivered.
func (f *frontierNode) val1(src types.NodeID) *types.ValMsg {
	v := &types.Vertex{Round: 1, Source: src, CreatedAt: 1 + int64(src), StrongEdges: f.r0}
	return &types.ValMsg{Vertex: v, Sig: crypto.Sign(&f.keys[src], vertexCtx(new(ctxBuf), v.DigestCached()))}
}

// echoes returns the ECHO frames node 0 sent since it reached round 1, as
// lists of positions.
func (f *frontierNode) echoes() (fs [][]types.Position) {
	for _, m := range f.ep.out[f.sent:] {
		if e, ok := m.(*types.EchoMsg); ok {
			var ps []types.Position
			for _, en := range e.Entries {
				ps = append(ps, en.Pos)
			}
			fs = append(fs, ps)
		}
	}
	return fs
}

func at(r types.Round, src types.NodeID) types.Position { return types.Position{Round: r, Source: src} }

// TestEchoNotHeldBelowFrontier: an echo for a round below the node's frontier
// leaves at the end of its drain, and takes a held frontier echo along.
func TestEchoNotHeldBelowFrontier(t *testing.T) {
	// Node 3's round-0 VAL is late: round 1 does not wait for node 3.
	f := newFrontierNode(t, 4, 0, 3)
	_, late := round0(f.keys, 3)
	f.deliver(3, late)
	if got := f.echoes(); fmt.Sprint(got) != fmt.Sprint([][]types.Position{{at(0, 3)}}) {
		t.Fatalf("a round-0 echo at round 1 left as %v, want one frame at its drain's end", got)
	}

	f = newFrontierNode(t, 4, 0, 3)
	f.deliver(1, f.val1(1))
	if got := f.echoes(); len(got) != 0 || f.node.echoTimer == nil {
		t.Fatalf("node 1's round-1 echo left as %v while node 2's VAL is out, want it held", got)
	}
	f.deliver(3, late)
	if got := f.echoes(); fmt.Sprint(got) != fmt.Sprint([][]types.Position{{at(1, 1), at(0, 3)}}) || f.node.echoTimer != nil {
		t.Fatalf("a round-0 echo joining a held round-1 one left as %v (hold running: %v), want both in one frame at once",
			got, f.node.echoTimer != nil)
	}
}

// TestEchoHeldAtFrontierBoundedByAnchorWait is TestEchoNotHeldWhileIdle at the
// frontier round, over ChanNet mailboxes and the real clock: echoes queued
// while a round-1 VAL is missing stay queued across drain ends, and leave by
// themselves AnchorWait after the first held drain; a missing VAL that is in
// the verify pool is waited for.
func TestEchoHeldAtFrontierBoundedByAnchorWait(t *testing.T) {
	const n, wait = 4, 300 * time.Millisecond
	t.Run("missing VAL", func(t *testing.T) {
		d := newDrainNodeWait(t, n, wait)
		vals := d.toRound1()
		start := time.Now()
		d.net.Endpoint(1).Send(0, vals[1])
		d.net.Endpoint(2).Send(0, vals[2])
		fs := d.echoesOf(1, 1, 1)
		if held := time.Since(start); held < wait || held > wait+5*time.Second {
			t.Fatalf("held %v, want AnchorWait (%v) and no longer than the slack", held, wait)
		}
		if got := fs[0].Entries; len(got) != 2 || got[0].Pos != at(1, 1) || got[1].Pos != at(1, 2) {
			t.Fatalf("the held frame is %+v, want the echoes of nodes 1 and 2", got)
		}
	})
	t.Run("VAL in the verify pool", func(t *testing.T) {
		d := newDrainNodeWait(t, n, wait)
		vals := d.toRound1()
		pool := crypto.NewVerifyPool(2, 0)
		defer pool.Close()
		stall := make(chan struct{})
		stalled := true
		defer func() {
			if stalled {
				close(stall)
			}
		}()
		verify := d.node.Verifier()
		d.net.Endpoint(0).(transport.VerifyingEndpoint).SetVerifier(func(from types.NodeID, m types.Message) bool {
			if from == 3 {
				<-stall
			}
			return verify(from, m)
		}, pool)
		release := d.hold()
		for src := types.NodeID(1); src < n; src++ {
			d.net.Endpoint(src).Send(0, vals[src])
		}
		d.queued(n)
		release()
		time.Sleep(wait / 10)
		if got := d.echoesOf(1, 1, 0); len(got) != 0 {
			t.Fatalf("%d round-1 ECHO frames left while node 3's VAL was being verified, want the echoes held", len(got))
		}
		close(stall)
		stalled = false
		if got := d.echoesOf(1, 1, 1)[0].Entries; len(got) != n-1 {
			t.Fatalf("the frame after the verdict has %d entries, want all %d", len(got), n-1)
		}
	})
}

// echoesOf returns the ECHO frames for round r that peer has heard, once it
// has heard want of them (at once when want is 0).
func (d *drainNode) echoesOf(peer int, r types.Round, want int) []*types.EchoMsg {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var fs []*types.EchoMsg
		d.mu.Lock()
		for _, m := range d.heard[peer] {
			if f, ok := m.(*types.EchoMsg); ok && f.Entries[0].Pos.Round == r {
				fs = append(fs, f)
			}
		}
		d.mu.Unlock()
		if len(fs) >= want || time.Now().After(deadline) {
			if len(fs) < want {
				d.t.Fatalf("peer %d heard %d round-%d ECHO frames, want %d", peer, len(fs), r, want)
			}
			return fs
		}
	}
}

// toRound1 hands node 0 every other node's round-0 VAL and enough echoes to
// deliver all of round 0, waits for its round-1 proposal, and returns the
// round-1 VALs of nodes 1..n-1, by source.
func (d *drainNode) toRound1() []*types.ValMsg {
	n := len(d.keys)
	d.node.mu.Lock()
	vs := []*types.Vertex{d.node.instIfAny(at(0, 0)).vertex}
	d.node.mu.Unlock()
	for src := types.NodeID(1); int(src) < n; src++ {
		v, val := round0(d.keys, src)
		vs = append(vs, v)
		d.net.Endpoint(src).Send(0, val)
	}
	for voter := types.NodeID(1); int(voter) < n; voter++ {
		var es []types.EchoEntry
		for _, v := range vs {
			if v.Source != voter {
				es = append(es, types.EchoEntry{Pos: v.Pos(), Digest: v.DigestCached()})
			}
		}
		d.net.Endpoint(voter).Send(0, signedEchoes(&d.keys[voter], voter, es...))
	}
	d.settle()
	if r := d.node.Round(); r != 1 {
		d.t.Fatalf("node 0 at round %d, want 1", r)
	}
	var refs []types.VertexRef
	for _, v := range vs {
		refs = append(refs, v.Ref())
	}
	vals := make([]*types.ValMsg, n)
	for src := types.NodeID(1); int(src) < n; src++ {
		v := &types.Vertex{Round: 1, Source: src, CreatedAt: 1 + int64(src), StrongEdges: refs}
		vals[src] = &types.ValMsg{Vertex: v, Sig: crypto.Sign(&d.keys[src], vertexCtx(new(ctxBuf), v.DigestCached()))}
	}
	return vals
}

// TestEchoHoldOff: with AnchorWait < 0 nothing is held. By hand, round-1 VALs
// a drain apart leave as one single-position frame each, byte for byte the
// frame the parent sent; on the simulator every node sends (n−1)² one-entry
// frames a round, the parent's count. (A 5 s n=7 simulator run with AnchorWait
// < 0 was also checked against PR 22 once: the same frames, bytes and send
// times, and the same time, sender, receiver and kind for every message.)
func TestEchoHoldOff(t *testing.T) {
	f := newFrontierNode(t, 4, -1)
	for src := types.NodeID(1); src < 4; src++ {
		val := f.val1(src)
		f.deliver(src, val)
		m, ok := f.ep.out[len(f.ep.out)-1].(*types.EchoMsg)
		d := val.Vertex.DigestCached()
		wire := binary.AppendUvarint(binary.AppendUvarint(nil, 1), uint64(src))
		if !ok || f.node.echoTimer != nil || !bytes.Equal(m.Marshal(nil), append(binary.AppendUvarint(append(wire, d[:]...), 0), m.Sig[:]...)) {
			t.Fatalf("node %d's VAL: last frame %T, hold running %v; want the single-position ECHO at its drain's end",
				src, f.ep.out[len(f.ep.out)-1], f.node.echoTimer != nil)
		}
	}
	if got := len(f.echoes()); got != 3 {
		t.Fatalf("%d ECHO frames for three VALs a drain apart, want 3", got)
	}

	for _, n := range []int{4, 7} {
		fnet := faults.NewNet(n, 1, nil)
		tp := newEchoTap(fnet)
		c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, fnet: fnet, anchor: -1})
		c.net.Run(2 * time.Second)
		for r := 0; r+2 < int(c.nodes[0].Round()); r++ {
			if k := [2]int{0, r}; tp.frames[k] != (n-1)*(n-1) || tp.entries[k] != (n-1)*(n-1) {
				t.Fatalf("n=%d round %d: node 0 sent %d echo entries in %d frames, want %d one-entry frames",
					n, r, tp.entries[k], tp.frames[k], (n-1)*(n-1))
			}
		}
		if held := c.nodes[0].PipelineSnapshot().Hist("rbc.echo_hold").Count; held != 0 {
			t.Fatalf("n=%d: %d echo holds with AnchorWait < 0", n, held)
		}
	}
}

// echoTap counts, per sender and round, the ECHO entries and frames on the
// wire (once per receiver, as TestRBCMessageComplexity does) and the VALs.
type echoTap struct {
	vals, entries, frames map[[2]int]int
	other                 map[types.MsgKind]int
}

func newEchoTap(fnet *faults.Net) *echoTap {
	tp := &echoTap{vals: map[[2]int]int{}, entries: map[[2]int]int{}, frames: map[[2]int]int{}, other: map[types.MsgKind]int{}}
	seen := map[types.Round]bool{}
	fnet.SetTap(func(from, to types.NodeID, m types.Message) {
		switch msg := m.(type) {
		case *types.ValMsg:
			tp.vals[[2]int{int(from), int(msg.Vertex.Round)}]++
		case *types.EchoMsg:
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
// peers, exactly, in at most 1.1 frames a round on average.
func TestEchoFramePerRound(t *testing.T) {
	const n, rounds = 7, 200
	fnet := faults.NewNet(n, 1, nil)
	tp := newEchoTap(fnet)
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, jitter: 0.02, txCount: 1, fnet: fnet})
	for c.minRound() < rounds+2 {
		c.net.Run(time.Second)
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
	t.Run("crashed member", func(t *testing.T) {
		const n, down = 7, 6
		c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, timeout: 300 * time.Millisecond})
		c.net.Run(time.Second)
		c.net.Isolate(down, true)
		nd, from := c.nodes[0], c.nodes[0].Round()
		waited := map[types.Round]bool{} // rounds node 0 held echoes for node 6 alone
		for end := c.net.Now() + 3*time.Second; c.net.Now() < end; {
			c.net.Run(250 * time.Microsecond)
			r := nd.round
			if nd.echoTimer == nil || waited[r] {
				continue
			}
			for src := types.NodeID(0); src < down; src++ {
				if v := nd.instIfAny(at(r, src)); v == nil || !v.valFrom {
					r = 0
				}
			}
			if r == 0 {
				continue
			}
			if p := nd.instIfAny(at(r-1, down)); p == nil || !p.delivered {
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
			c.net.Run(250 * time.Microsecond)
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
		wait := c.nodes[0].cfg.AnchorWait
		t.Logf("round %d: node 1 held its echoes %v; node 0 held its echoes %v, then its proposal %v", late, e1, e0, a0)
		if fmt.Sprint(sent) != fmt.Sprint([][]types.Position{{at(late, 0), at(late, 2)}, {at(late, 3)}}) || e1 != wait {
			t.Fatalf("node 1 held %v and sent round %d as %v, want nodes 0 and 2 at the cap (%v), node 3 behind them",
				e1, late, sent, wait)
		}
		// Node 0's echo hold ended with node 3's VAL; its anchor hold then
		// waits for node 3's vertex, which nodes 1 and 2 echoed 4.5 ms after
		// the cap, and catches it.
		own := c.nodes[0].instIfAny(at(late+1, 0))
		if e0 != time.Millisecond || a0 <= 0 || a0 >= wait || own == nil || !own.vertex.HasStrongEdgeTo(at(late, 3)) {
			t.Fatalf("node 0 held its echoes %v and its proposal %v (AnchorWait %v); want 1ms, then a proposal that waited for node 3's vertex and votes for it",
				e0, a0, wait)
		}
	})
}
