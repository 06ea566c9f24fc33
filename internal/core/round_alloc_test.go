package core

import (
	"runtime"
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// roundPathMallocs runs an n=7 single-clan cluster over ChanNet with no
// payload, lets it pass the GC horizon so that every recycled structure has
// been around once, and returns the heap allocations per node per round over
// the next 200 rounds — the whole process's, so the clocks' timers and the
// mailboxes are counted with the nodes.
func roundPathMallocs(t *testing.T) float64 {
	const n, warm, rounds = 7, 100, 200
	net := transport.NewChanNet(n, 0)
	t.Cleanup(net.Close)
	keys := crypto.GenerateKeys(n, 13)
	reg := crypto.NewRegistry(keys, true)
	nodes := make([]*Node, n)
	for i := range nodes {
		id := types.NodeID(i)
		nodes[i] = New(Config{Self: id, N: n, Mode: ModeSingleClan, Clans: [][]types.NodeID{{0, 1, 2}},
			Key: &keys[i], Reg: reg, Deliver: func(CommittedVertex) {}}, net.Endpoint(id), net.Clock(id))
		nodes[i].Start()
		t.Cleanup(nodes[i].Stop)
	}
	reach := func(r types.Round) {
		for deadline := time.Now().Add(60 * time.Second); nodes[0].Round() < r; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d after 60 s, want %d", nodes[0].Round(), r)
			}
		}
	}
	reach(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	from := nodes[0].Round()
	reach(from + rounds)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n) / float64(nodes[0].Round()-from)
}

// TestRoundPathAllocs: a round with nothing in it costs a node at most half
// the allocations it did before certificates, DAG rows and timers were
// recycled. The parent commit (PR 21) measured 56 with this same function, 23
// of them ChanNet's closure per send, which went in the same change; with
// only that closure removed the parent measured parentRoundPathMallocs.
func TestRoundPathAllocs(t *testing.T) {
	const parentRoundPathMallocs = 33
	got := roundPathMallocs(t)
	t.Logf("one empty n=7 round: %.1f allocations per node (parent %d)", got, parentRoundPathMallocs)
	if 2*got > parentRoundPathMallocs && !raceEnabled {
		t.Fatalf("a round allocates %.1f per node, want at most half the parent's %d", got, parentRoundPathMallocs)
	}
}
