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
// ECHO frames the node broadcasts.
type drainEndpoint struct {
	self    types.NodeID
	handler transport.Handler
	drained func()
	echoes  []*types.EchoMsg
}

func (e *drainEndpoint) Self() types.NodeID                      { return e.self }
func (e *drainEndpoint) Send(types.NodeID, types.Message)        {}
func (e *drainEndpoint) Multicast([]types.NodeID, types.Message) {}
func (e *drainEndpoint) SetHandler(h transport.Handler)          { e.handler = h }
func (e *drainEndpoint) SetDrainHook(fn func()) bool             { e.drained = fn; return true }
func (e *drainEndpoint) Stats() transport.Stats                  { return transport.Stats{} }
func (e *drainEndpoint) Close() error                            { return nil }

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
// drain — and hands every ECHO frame a node broadcasts to a receiver's
// pre-verifier. Frames sent, signatures made and verify jobs at a receiver
// all equal the number of drains, not the number of positions; the counts
// are deterministic, and allocs/op covers all three nodes' handling (their
// construction and the VALs' signatures are outside the timer).
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
			AnchorWait: -1, Costs: crypto.Costs{EdSign: echoDrainSign}}, ep, clk)
		nd.Start()
		clk.signs = 0 // the round-0 proposal's
		return nd, ep, clk
	}
	splits := []int{1, 2, n - 1}
	counts := map[string]float64{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, drains := range splits {
			b.StopTimer()
			_, ep, clk := node(0)
			receiver, _, _ := node(types.NodeID(n - 1))
			verify, jobs := receiver.Verifier(), 0
			b.StartTimer()
			for k, val := range vals {
				ep.handler(val.Vertex.Source, val)
				if (k+1)*drains/len(vals) > k*drains/len(vals) {
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
			if entries != len(vals) {
				b.Fatalf("%d VALs in %d drains produced %d echo entries", len(vals), drains, entries)
			}
			counts[fmt.Sprintf("frames/drains=%d", drains)] = float64(len(ep.echoes))
			counts[fmt.Sprintf("signs/drains=%d", drains)] = float64(clk.signs)
			counts[fmt.Sprintf("verify_jobs/drains=%d", drains)] = float64(jobs)
		}
	}
	for k, v := range counts {
		b.ReportMetric(v, k)
	}
}
