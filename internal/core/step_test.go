package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// The stepped bed: a tcluster built with topt.stepped runs its nodes on one
// wire and one clock that only the test moves, with no simulator and no
// goroutine of its own. Every input is a step the test takes — a message
// handed to a node (deliver), the end of its drain (drainEnd), the clock
// moved on (advance) — or the seeded pick runTo takes for it. A test plays
// every party the bed does not build (topt.live), putting what they send on
// the wire itself (inject), signed with crypto.Sign: the bed checks real
// signatures.

// msgIn is the input that hands m from `from` to a node.
func msgIn(from types.NodeID, m types.Message) input {
	return input{kind: inMessage, from: from, msg: m}
}

// packet is one message on the wire. frame numbers the Send, Multicast or
// Broadcast call that put it there, per sender: the transports encode once
// per call, so a multicast is one frame to many.
type packet struct {
	from, to types.NodeID
	m        types.Message
	frame    int
}

// wireEndpoint puts what its node sends on the wire, one packet per
// recipient; a broadcast reaches its sender too, as on every transport. With
// a nil wire it only counts frames, and allocates nothing.
type wireEndpoint struct {
	self   types.NodeID
	n      int
	wire   *[]packet
	frames int // Send, Multicast and Broadcast calls
}

func (e *wireEndpoint) Self() types.NodeID { return e.self }

func (e *wireEndpoint) Send(to types.NodeID, m types.Message) {
	e.frames++
	e.put(to, m)
}

func (e *wireEndpoint) Multicast(tos []types.NodeID, m types.Message) {
	e.frames++
	for _, to := range tos {
		e.put(to, m)
	}
}

func (e *wireEndpoint) Broadcast(m types.Message) {
	e.frames++
	for to := types.NodeID(0); int(to) < e.n; to++ {
		e.put(to, m)
	}
}

func (e *wireEndpoint) put(to types.NodeID, m types.Message) {
	if e.wire != nil {
		*e.wire = append(*e.wire, packet{from: e.self, to: to, m: m, frame: e.frames})
	}
}

// The bed ends drains and delivers messages itself, so the node's handler
// and drain hook are never called.
func (*wireEndpoint) SetHandler(transport.Handler) {}
func (*wireEndpoint) SetDrainHook(func())          {}
func (*wireEndpoint) Stats() transport.Stats       { return transport.Stats{} }
func (*wireEndpoint) Close() error                 { return nil }

// signCost is an EdSign charge no other operation is configured with: the
// bed's nodes charge it for each signature, and the clock counts them.
const signCost = 7 * time.Nanosecond

// stepClock is the bed's one clock: advance fires the timers it passes, in
// deadline order, and Charge counts the signatures the nodes make.
type stepClock struct {
	now    time.Duration
	timers []*stepTimer
	signs  int
}

type stepTimer struct {
	at   time.Duration
	fn   func()
	dead bool
}

func (t *stepTimer) StopArm(uint64) bool { live := !t.dead; t.dead = true; return live }

func (c *stepClock) Now() time.Duration { return c.now }

func (c *stepClock) Charge(d time.Duration) {
	if d == signCost {
		c.signs++
	}
}

func (c *stepClock) After(d time.Duration, fn func()) transport.Timer {
	t := &stepTimer{at: c.now + d, fn: fn}
	c.timers = append(c.timers, t)
	return transport.MakeTimer(t, 0)
}

// next returns the earliest deadline armed, or -1 when no timer is.
func (c *stepClock) next() time.Duration {
	next := time.Duration(-1)
	for _, t := range c.timers {
		if !t.dead && (next < 0 || t.at < next) {
			next = t.at
		}
	}
	return next
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
	c.timers = slices.DeleteFunc(c.timers, func(t *stepTimer) bool { return t.dead })
}

// oneNode builds party self of n alone on the stepped bed, unstarted: the
// test plays every other party and starts self when it needs a proposal.
func oneNode(t testing.TB, n int, self types.NodeID, o topt) (*tcluster, *Node) {
	o.stepped, o.live, o.mute = true, []types.NodeID{self}, map[types.NodeID]bool{self: true}
	c := newTCluster(t, n, o)
	return c, c.nodes[self]
}

// inject puts m from `from` to `to` on the wire: a frame of a party the test
// plays.
func (c *tcluster) inject(from, to types.NodeID, m types.Message) {
	c.inFlight = append(c.inFlight, packet{from: from, to: to, m: m})
}

// take takes the packets addressed to `to` off the wire, oldest first.
func (c *tcluster) take(to types.NodeID) []packet {
	var ps []packet
	c.inFlight = slices.DeleteFunc(c.inFlight, func(p packet) bool {
		if p.to == to {
			ps = append(ps, p)
		}
		return p.to == to
	})
	return ps
}

// deliver hands each packet to its recipient, if the bed built it, within
// the drain open there.
func (c *tcluster) deliver(ps ...packet) {
	for _, p := range ps {
		if nd := c.nodes[p.to]; nd != nil {
			nd.step(msgIn(p.from, p.m))
		}
	}
}

// drainEnd ends node i's drain.
func (c *tcluster) drainEnd(i types.NodeID) { c.nodes[i].step(input{kind: inDrainEnd}) }

// drain hands node i everything on the wire for it in one drain, and ends
// the drain.
func (c *tcluster) drain(i types.NodeID) {
	c.deliver(c.take(i)...)
	c.drainEnd(i)
}

// advance moves the clock on by d, firing the timers it passes.
func (c *tcluster) advance(d time.Duration) { c.clk.advance(d) }

// runTo drives the bed until every node it built has reached round `rounds`.
// While packets are in flight it delivers one picked at random (seeded) and
// ends the recipient's drain; when none is, it advances the clock to the
// earliest timer deadline. It returns with every order executed. A non-nil
// wire sees each packet before it is delivered: it may rewrite it, or drop
// it by returning false.
func (c *tcluster) runTo(seed int64, rounds types.Round, wire func(p *packet) bool) {
	rng := rand.New(rand.NewSource(seed))
	for steps := 0; ; steps++ {
		done := true
		for _, nd := range c.nodes {
			done = done && (nd == nil || nd.Round() >= rounds)
		}
		if done {
			break
		}
		if steps == 100_000 {
			c.t.Fatalf("seed %d: no node past round %d after %d steps", seed, rounds, steps)
		}
		if k := len(c.inFlight); k > 0 {
			i := rng.Intn(k)
			p := c.inFlight[i]
			c.inFlight[i] = c.inFlight[k-1]
			c.inFlight = c.inFlight[:k-1]
			if (wire != nil && !wire(&p)) || c.nodes[p.to] == nil {
				continue
			}
			c.deliver(p)
			c.drainEnd(p.to)
			continue
		}
		next := c.clk.next()
		if next < 0 {
			c.t.Fatalf("seed %d: nothing in flight and no timer armed", seed)
		}
		c.advance(next - c.clk.now)
	}
	for _, nd := range c.nodes {
		if nd != nil {
			nd.Flush()
		}
	}
}

// TestSteppedClusterAgrees drives four nodes through step alone — messages
// in a seeded random order, drain ends, timer fires — for 8 rounds: their
// orders are prefix-consistent, every vertex of rounds 0-4 is ordered at
// every node, and the same seed gives the same order.
func TestSteppedClusterAgrees(t *testing.T) {
	const rounds = 8
	run := func(seed int64) *tcluster {
		c := newTCluster(t, 4, topt{stepped: true, txCount: 1})
		c.runTo(seed, rounds, nil)
		return c
	}
	for _, seed := range []int64{1, 2} {
		c := run(seed)
		c.checkConsistentOrder(nil)
		for i, order := range c.orders {
			ordered := map[types.Position]bool{}
			for _, cv := range order {
				ordered[cv.Vertex.Pos()] = true
			}
			for r := types.Round(0); r <= 4; r++ {
				for src := types.NodeID(0); int(src) < c.n; src++ {
					if !ordered[types.Position{Round: r, Source: src}] {
						t.Fatalf("seed %d: node %d did not order %v", seed, i, types.Position{Round: r, Source: src})
					}
				}
			}
		}
		again := run(seed)
		for i := range c.orders {
			if got, want := positions(again.orders[i]), positions(c.orders[i]); got != want {
				t.Fatalf("seed %d: node %d ordered\n%s\nin one run and\n%s\nin the next", seed, i, want, got)
			}
		}
	}
}

// positions prints an order's positions.
func positions(order []CommittedVertex) string {
	ps := make([]types.Position, len(order))
	for i, cv := range order {
		ps[i] = cv.Vertex.Pos()
	}
	return fmt.Sprint(ps)
}
