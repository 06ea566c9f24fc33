package core

import (
	"runtime"
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/mempool"
	"clanbft/internal/simnet"
	"clanbft/internal/types"
)

// roundPathMallocs runs an n=7 single-clan cluster on the simulator, which
// hands every receiver the sender's message, lets it pass the GC horizon so
// that every recycled structure has been around once, and returns the heap
// allocations per node per round over the next 200 rounds — the whole
// process's, so the simulator's events and timers are counted with the
// nodes. With txs > 0 each clan member proposes a real
// mempool.Pool block of that many 128 B transactions every round, submitted
// just before it is drained; without, rounds carry no payload.
func roundPathMallocs(t *testing.T, txs int) float64 {
	const n, warm, rounds = 7, 100, 200
	net := simnet.New(simnet.Config{N: n, Seed: 1, LatencyRTTms: [][]float64{{2}}, JitterPct: -1})
	keys := testKeys(n)
	reg := crypto.NewRegistry(keys, true)
	nodes := make([]*Node, n)
	for i := range nodes {
		id := types.NodeID(i)
		cfg := Config{Self: id, Mode: ModeSingleClan, Clans: [][]types.NodeID{{0, 1, 2}}, Deliver: func(CommittedVertex) {}}
		if txs > 0 {
			cfg.Blocks = &feed{Pool: mempool.NewPool(0), txs: txs, tx: make([]byte, 128)}
		}
		nodes[i] = newNode(keys, reg, cfg, net.Endpoint(id), net.Clock(id))
		nodes[i].Start()
		t.Cleanup(nodes[i].Stop)
	}
	reach := func(r types.Round) {
		for deadline := time.Now().Add(60 * time.Second); nodes[0].Round() < r; net.Run(10 * time.Millisecond) {
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

// feed is a Pool that is handed txs fresh transactions just before each
// drain, so every proposal carries a real Pool block.
type feed struct {
	*mempool.Pool
	txs int
	tx  []byte
}

func (f *feed) NextBlock(r types.Round) *types.Block {
	for i := 0; i < f.txs; i++ {
		f.Submit(f.tx)
	}
	return f.Pool.NextBlock(r)
}

// TestRoundPathAllocs: a round with nothing in it costs a node at most
// emptyRoundMallocs allocations. Before certificates, DAG rows and timers
// were recycled it cost 56 with this same function over a channel network,
// 23 of them that network's closure per send, which went in the same change;
// with only that closure removed it cost parentRoundPathMallocs. Most of what
// an empty round still costs is the simulator's events and timers (2.0 per
// node here): its timing wheel hands each slot it fills a recycled bucket.
// It read 3.9 while a drained slot kept a bucket idle for a whole wheel turn
// and each fresh slot allocated its own.
//
// A round whose clan members each propose a Pool block of 8 transactions
// costs a node at most one allocation more than an empty one: the block and
// its index (Pool.NextBlock), the VALs (sendVal) and the ECHO frame
// (flushEchoes) are carved, and what is left is the 8 transactions' share of
// the pool's chunks and the block cache's entries. Before they were carved
// the same round cost 6.2, 3.7 more than an empty one.
func TestRoundPathAllocs(t *testing.T) {
	const parentRoundPathMallocs, emptyRoundMallocs = 33, 3
	got := roundPathMallocs(t, 0)
	t.Logf("one empty n=7 round: %.1f allocations per node (parent %d)", got, parentRoundPathMallocs)
	if got > emptyRoundMallocs && !raceEnabled {
		t.Fatalf("a round allocates %.1f per node, want at most %d", got, emptyRoundMallocs)
	}
	if raceEnabled {
		return // uncounted there, and ~30 s; TestTCPTxPathPoolBalanced race-checks Pool blocks end to end
	}
	full := roundPathMallocs(t, 8)
	t.Logf("one n=7 round with Pool blocks: %.1f allocations per node", full)
	if full > got+1 {
		t.Fatalf("a round with Pool blocks allocates %.1f per node, an empty one %.1f: want at most 1 more", full, got)
	}
}
