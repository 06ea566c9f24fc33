package types_test

import (
	"runtime"
	"testing"
	"weak"

	"clanbft/internal/mempool"
	"clanbft/internal/types"
)

// TestCarvedBlocksRetention: a carved block keeps what its holders dropped
// reachable only to a bound. A Pool proposes 64 blocks and a connection's
// Decoder receives them as VALs; everything but the newest block of each is
// dropped. After a GC a dropped block may still be reachable only if it is
// one of the 3 blocks before the newest — at most 4 of the proposer's rounds
// stay reachable — and its payload only then, or when it starts in the chunk
// the newest's payload starts in. Blocks of 16, 8, 8 and 8 transactions of
// 512 B take turns, so an index carved past its own slab of blocks, or a
// chunk shared by more than a few blocks, shows.
func TestCarvedBlocksRetention(t *testing.T) {
	const blocks, txSize, rounds = 64, 512, 4
	sizes := []int{16, 8, 8, 8}
	type watch struct {
		blk     weak.Pointer[types.Block]
		payload weak.Pointer[byte]
		chunk   int // the chunk the block's first transaction is in
	}
	var pool, dec []watch
	// The pool and the decoder both copy transactions into chunks back to
	// back, and 512 B transactions fill a chunk exactly.
	offset := 0
	newest := proposeAndReceive(t, blocks, sizes, txSize, func(p, d *types.Block) {
		chunk := offset / types.TxChunkSize
		pool = append(pool, watch{weak.Make(p), weak.Make(&p.Txs[0][0]), chunk})
		dec = append(dec, watch{weak.Make(d), weak.Make(&d.Txs[0][0]), chunk})
		offset += len(p.Txs) * txSize
	})
	runtime.GC()
	runtime.GC()
	for _, side := range []struct {
		name string
		w    []watch
	}{{"pool", pool}, {"decoder", dec}} {
		last := len(side.w) - 1
		kept, payloads := 0, 0
		for i, w := range side.w[:last] {
			near := last-i < rounds
			if w.blk.Value() != nil {
				kept++
				if !near {
					t.Errorf("%s: block %d is reachable %d blocks after it was dropped", side.name, i, last-i)
				}
			}
			if w.payload.Value() != nil {
				payloads++
				if !near && w.chunk != side.w[last].chunk {
					t.Errorf("%s: block %d's payload is reachable from outside the newest's chunk, %d blocks on", side.name, i, last-i)
				}
			}
		}
		t.Logf("%s: of %d dropped blocks, %d structs and %d payloads still reachable", side.name, last, kept, payloads)
	}
	runtime.KeepAlive(newest)
}

// proposeAndReceive drains n blocks from a Pool, the i-th of sizes[i%len]
// transactions, sends each through a Decoder as a VAL, hands both copies to
// watch, and returns the newest of each: the only ones it keeps.
func proposeAndReceive(t *testing.T, n int, sizes []int, txSize int, watch func(pooled, decoded *types.Block)) [2]*types.Block {
	p := mempool.NewPool(0)
	tx := make([]byte, txSize)
	var dec types.Decoder
	var kept [2]*types.Block
	for r := 0; r < n; r++ {
		for i := 0; i < sizes[r%len(sizes)]; i++ {
			tx[0] = byte(r)
			p.Submit(tx)
		}
		pooled := p.NextBlock(types.Round(r))
		pooled.Round, pooled.Source = types.Round(r), 1
		v := &types.Vertex{Round: types.Round(r), Source: 1, BlockDigest: pooled.Digest()}
		m, err := dec.Decode(types.Encode(&types.ValMsg{Vertex: v, Block: pooled}, nil))
		if err != nil {
			t.Fatal(err)
		}
		decoded := m.(*types.ValMsg).TakeBlock()
		if decoded.Digest() != v.BlockDigest {
			t.Fatal("the decoded block differs from the proposed one")
		}
		watch(pooled, decoded)
		kept = [2]*types.Block{pooled, decoded}
	}
	return kept
}
