package core

import (
	"runtime"
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// nullEndpoint discards everything sent, so a test measures the node alone.
type nullEndpoint struct{ self types.NodeID }

func (e nullEndpoint) Self() types.NodeID                    { return e.self }
func (nullEndpoint) Send(types.NodeID, types.Message)        {}
func (nullEndpoint) Multicast([]types.NodeID, types.Message) {}
func (nullEndpoint) Broadcast(types.Message)                 {}
func (nullEndpoint) SetHandler(transport.Handler)            {}
func (nullEndpoint) Stats() transport.Stats                  { return transport.Stats{} }
func (nullEndpoint) Close() error                            { return nil }

// frozenClock never moves and never fires.
type frozenClock struct{}

type deadTimer struct{}

func (deadTimer) Stop() bool { return true }

func (frozenClock) Now() time.Duration                          { return 0 }
func (frozenClock) After(time.Duration, func()) transport.Timer { return deadTimer{} }
func (frozenClock) Charge(time.Duration)                        {}

// rbcInstanceMallocs drives one merged-RBC instance at n=7 — the VAL (its
// proposer's echo), four more echoes that complete the 2f+1 quorum,
// certificate assembly, delivery and DAG insertion, then one late echo — and
// returns the heap allocations the six handler calls made. The node has
// already run another instance of the same round, so first-use costs (map
// buckets, the round's rows) are paid.
func rbcInstanceMallocs(t *testing.T) uint64 {
	const n = 7
	keys := crypto.GenerateKeys(n, 5)
	reg := crypto.NewRegistry(keys, true)
	node := New(Config{Self: 0, N: n, Mode: ModeBaseline, Key: &keys[0], Reg: reg},
		nullEndpoint{}, frozenClock{})
	drive := func(src types.NodeID) uint64 {
		pos := types.Position{Round: 0, Source: src}
		v := &types.Vertex{Round: 0, Source: src, CreatedAt: 1}
		d := v.DigestCached()
		val := &types.ValMsg{Vertex: v, Sig: crypto.Sign(&keys[src], vertexCtx(new(ctxBuf), d))}
		var echoes []*types.EchoMsg
		for voter := types.NodeID(1); voter < n; voter++ {
			if voter != src {
				echoes = append(echoes, signedEchoes(&keys[voter], voter, types.EchoEntry{Pos: pos, Digest: d}))
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		node.handle(src, val)
		for _, m := range echoes {
			node.handle(m.Voter, m)
		}
		runtime.ReadMemStats(&after)
		in := node.instIfAny(pos)
		if in == nil || !in.delivered || in.certAgg.Bitmap == nil {
			t.Fatalf("instance %v did not deliver: %+v", pos, in)
		}
		return after.Mallocs - before.Mallocs
	}
	drive(1)
	return drive(2)
}

// TestRBCInstanceAllocs: one instance costs at most a third of what it did
// before its state was carved from the round's slab. The parent commit
// (PR 15) measured parentRBCInstanceMallocs with this same function.
func TestRBCInstanceAllocs(t *testing.T) {
	const parentRBCInstanceMallocs = 11
	got := rbcInstanceMallocs(t)
	t.Logf("one n=7 RBC instance: %d allocations (parent %d)", got, parentRBCInstanceMallocs)
	if 3*got > parentRBCInstanceMallocs {
		t.Fatalf("one RBC instance allocates %d, want at most a third of the parent's %d", got, parentRBCInstanceMallocs)
	}
}
