package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"clanbft/internal/types"
)

// msgIn is the input that hands m from `from` to a node.
func msgIn(from types.NodeID, m types.Message) input {
	return input{kind: inMessage, from: from, msg: m}
}

// packet is one message on a stepped cluster's wire.
type packet struct {
	from, to types.NodeID
	m        types.Message
}

// wireEndpoint records what its node sends on the cluster's wire, one packet
// per recipient; a broadcast reaches its sender too, as on every transport.
type wireEndpoint struct {
	nullEndpoint
	n    int
	wire *[]packet
}

func (e *wireEndpoint) Send(to types.NodeID, m types.Message) {
	*e.wire = append(*e.wire, packet{e.self, to, m})
}

func (e *wireEndpoint) Multicast(tos []types.NodeID, m types.Message) {
	for _, to := range tos {
		e.Send(to, m)
	}
}

func (e *wireEndpoint) Broadcast(m types.Message) {
	for to := types.NodeID(0); int(to) < e.n; to++ {
		e.Send(to, m)
	}
}

// steppedCluster runs four nodes with no simulator and no goroutine of its
// own: every input is a step the test takes. While messages are in flight it
// delivers one picked at random (seeded), then ends the recipient's drain;
// when none is, it moves every node's clock to the earliest timer deadline,
// which fires the timers due. It stops once every node has reached round
// `rounds` and returns each node's order, executed. A non-nil wire sees each
// packet before it is delivered: it may rewrite it, or drop it by returning
// false.
func steppedCluster(t *testing.T, seed int64, rounds types.Round, wire func(c *tcluster, p *packet) bool) *tcluster {
	c := newTCluster(t, 4, topt{stepped: true, txCount: 1})
	rng := rand.New(rand.NewSource(seed))
	for steps := 0; ; steps++ {
		done := true
		for _, nd := range c.nodes {
			done = done && nd.Round() >= rounds
		}
		if done {
			break
		}
		if steps == 100_000 {
			t.Fatalf("seed %d: no node past round %d after %d steps", seed, rounds, steps)
		}
		if k := len(c.inFlight); k > 0 {
			i := rng.Intn(k)
			p := c.inFlight[i]
			c.inFlight[i] = c.inFlight[k-1]
			c.inFlight = c.inFlight[:k-1]
			if wire != nil && !wire(c, &p) {
				continue
			}
			c.nodes[p.to].step(msgIn(p.from, p.m))
			c.nodes[p.to].step(input{kind: inDrainEnd})
			continue
		}
		next := time.Duration(-1)
		for _, clk := range c.clks {
			for _, tm := range clk.timers {
				if !tm.dead && (next < 0 || tm.at < next) {
					next = tm.at
				}
			}
		}
		if next < 0 {
			t.Fatalf("seed %d: nothing in flight and no timer armed", seed)
		}
		for _, clk := range c.clks {
			clk.advance(next - clk.now)
		}
	}
	for _, nd := range c.nodes {
		nd.Flush()
	}
	return c
}

// TestSteppedClusterAgrees drives four nodes through step alone — messages
// in a seeded random order, drain ends, timer fires — for 8 rounds: their
// orders are prefix-consistent, every vertex of rounds 0-4 is ordered at
// every node, and the same seed gives the same order.
func TestSteppedClusterAgrees(t *testing.T) {
	const rounds = 8
	for _, seed := range []int64{1, 2} {
		c := steppedCluster(t, seed, rounds, nil)
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
		again := steppedCluster(t, seed, rounds, nil)
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
