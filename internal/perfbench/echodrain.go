package perfbench

import (
	"fmt"
	"testing"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/crypto"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// drainEndpoint is an endpoint a benchmark drives by hand: it keeps the
// node's handler and drain hook for the benchmark to call, and records the
// node's ECHO frames and proposals.
type drainEndpoint struct {
	self    types.NodeID
	handler transport.Handler
	drained func()
	echoes  []*types.EchoMsg
	vals    []*types.ValMsg
}

func (e *drainEndpoint) Self() types.NodeID               { return e.self }
func (e *drainEndpoint) Send(types.NodeID, types.Message) {}
func (e *drainEndpoint) SetHandler(h transport.Handler)   { e.handler = h }
func (e *drainEndpoint) SetDrainHook(fn func()) bool      { e.drained = fn; return true }
func (e *drainEndpoint) Stats() transport.Stats           { return transport.Stats{} }
func (e *drainEndpoint) Close() error                     { return nil }

func (e *drainEndpoint) Multicast(_ []types.NodeID, m types.Message) {
	if v, ok := m.(*types.ValMsg); ok {
		e.vals = append(e.vals, v)
	}
}

func (e *drainEndpoint) Broadcast(m types.Message) {
	if f, ok := m.(*types.EchoMsg); ok {
		e.echoes = append(e.echoes, f)
	}
}

// echoDrainSign is an EdSign charge nothing else in the configuration uses,
// so the clock below counts signatures.
const echoDrainSign = 7 * time.Nanosecond

// stillClock never moves and never fires; it counts EdSign charges.
type stillClock struct{ signs int }

type noTimer struct{}

func (noTimer) Stop() bool { return true }

func (*stillClock) Now() time.Duration                          { return 0 }
func (*stillClock) After(time.Duration, func()) transport.Timer { return noTimer{} }
func (c *stillClock) Charge(d time.Duration) {
	if d == echoDrainSign {
		c.signs++
	}
}

// EchoDrain counts what one round's VALs cost a node in echoes, by how many
// mailbox drains they reach it in. One op hands the n-1 round-0 VALs of an
// n-party tribe to three fresh nodes — in one drain, in two, and one VAL per
// drain — and the n-1 round-1 VALs, one per drain, to a node whose round 0
// is complete; it hands every ECHO frame a node broadcasts to a receiver's
// pre-verifier. Round 0 is never held, so there frames sent, signatures made
// and verify jobs at a receiver all equal the number of drains, not the
// number of positions; at round 1, the node's frontier, the echo hold keeps
// the queue until the round's last VAL, and each costs one. The counts are
// deterministic, and allocs/op covers all four nodes' handling (their
// construction, the VALs' signatures and the round 0 that brings the fourth
// node to round 1 are outside the timer).
func EchoDrain(b *testing.B, n int) {
	keys := crypto.GenerateKeys(n, 3)
	reg := crypto.NewRegistry(keys, true)
	vals := make([]*types.ValMsg, 0, n-1)
	for src := types.NodeID(1); int(src) < n; src++ {
		v := &types.Vertex{Round: 0, Source: src, CreatedAt: 1}
		d := v.DigestCached()
		vals = append(vals, &types.ValMsg{Vertex: v, Sig: crypto.Sign(&keys[src], append([]byte{'V'}, d[:]...))})
	}
	node := func(self types.NodeID) (*core.Node, *drainEndpoint, *stillClock) {
		ep, clk := &drainEndpoint{self: self}, &stillClock{}
		nd := core.New(core.Config{Self: self, N: n, Mode: core.ModeBaseline, Key: &keys[self], Reg: reg,
			Costs: crypto.Costs{EdSign: echoDrainSign}}, ep, clk)
		nd.Start()
		clk.signs = 0 // the round-0 proposal's
		return nd, ep, clk
	}
	// atRound1 runs round 0 of n nodes — every VAL to everyone in one drain,
	// then every ECHO frame to everyone else in another — and returns node 0,
	// at round 1, and the others' round-1 VALs.
	atRound1 := func() (*drainEndpoint, *stillClock, []*types.ValMsg) {
		eps, clks := make([]*drainEndpoint, n), make([]*stillClock, n)
		for i := range eps {
			_, eps[i], clks[i] = node(types.NodeID(i))
		}
		for _, to := range eps {
			for j, from := range eps {
				to.handler(types.NodeID(j), from.vals[0])
			}
			to.drained()
		}
		for i, to := range eps {
			for j, from := range eps {
				if i != j {
					to.handler(types.NodeID(j), from.echoes[0])
				}
			}
			to.drained()
		}
		next := make([]*types.ValMsg, 0, n)
		for i, ep := range eps {
			if len(ep.vals) != 2 {
				b.Fatalf("node %d proposed %d rounds, want 2", i, len(ep.vals))
			}
			next = append(next, ep.vals[1])
		}
		eps[0].handler(0, next[0])
		eps[0].echoes, clks[0].signs = nil, 0
		return eps[0], clks[0], next[1:]
	}
	counts := map[string]float64{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, drains := range []int{1, 2, n - 1, -(n - 1)} { // negative: at round 1
			b.StopTimer()
			key, in := fmt.Sprintf("drains=%d", drains), vals
			_, ep, clk := node(0)
			if drains < 0 {
				drains, key = -drains, fmt.Sprintf("drains=%d,round=1", -drains)
				ep, clk, in = atRound1()
			}
			receiver, _, _ := node(types.NodeID(n - 1))
			verify, jobs := receiver.Verifier(), 0
			b.StartTimer()
			for k, val := range in {
				ep.handler(val.Vertex.Source, val)
				if (k+1)*drains/len(in) > k*drains/len(in) {
					ep.drained() // the drain ends after this VAL
				}
			}
			entries := 0
			for _, f := range ep.echoes {
				entries += len(f.Entries)
				if jobs++; !verify(0, f) {
					b.Fatal("receiver rejected an ECHO frame")
				}
			}
			if entries != len(in) {
				b.Fatalf("%d VALs (%s) produced %d echo entries", len(in), key, entries)
			}
			counts["frames/"+key] = float64(len(ep.echoes))
			counts["signs/"+key] = float64(clk.signs)
			counts["verify_jobs/"+key] = float64(jobs)
		}
	}
	for k, v := range counts {
		b.ReportMetric(v, k)
	}
}
