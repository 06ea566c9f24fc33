// Package mempool supplies transaction payloads to proposers: a synthetic
// workload generator matching the paper's evaluation setup (a configurable
// number of 512-byte transactions per proposal) and a client-facing pool for
// applications that submit real transactions.
package mempool

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"clanbft/internal/types"
)

// Generator implements core.BlockSource with a fixed-rate synthetic
// workload: TxPerProposal transactions of TxSize bytes per block, exactly
// like the paper's load generator. With Synthetic=true the payload bytes are
// modeled rather than materialized, which is what the large-scale simulated
// experiments use; with Synthetic=false real random-ish bytes are produced.
type Generator struct {
	ID            types.NodeID
	TxPerProposal int
	TxSize        int
	Synthetic     bool
	seq           uint64
}

// NewGenerator builds a generator for one proposer.
func NewGenerator(id types.NodeID, txPerProposal, txSize int, synthetic bool) *Generator {
	return &Generator{ID: id, TxPerProposal: txPerProposal, TxSize: txSize, Synthetic: synthetic}
}

// NextBlock produces the next proposal payload. Returns nil when the
// generator is configured for zero transactions.
func (g *Generator) NextBlock(r types.Round) *types.Block {
	if g.TxPerProposal <= 0 {
		return nil
	}
	g.seq++
	if g.Synthetic {
		return &types.Block{
			SynthCount: uint32(g.TxPerProposal),
			SynthSize:  uint32(g.TxSize),
			SynthSeed:  g.seq<<16 | uint64(g.ID),
		}
	}
	b := &types.Block{}
	for i := 0; i < g.TxPerProposal; i++ {
		tx := make([]byte, g.TxSize)
		binary.LittleEndian.PutUint64(tx, g.seq)
		if len(tx) >= 12 {
			binary.LittleEndian.PutUint16(tx[8:], uint16(g.ID))
			binary.LittleEndian.PutUint16(tx[10:], uint16(i))
		}
		// Cheap deterministic filler so payloads are not all zeroes.
		for j := 12; j < len(tx); j++ {
			tx[j] = byte(j*31 + i*7 + int(g.seq))
		}
		b.Txs = append(b.Txs, tx)
	}
	return b
}

// Pool is a thread-safe transaction queue for applications: clients Submit
// transactions, the proposer drains up to MaxPerBlock of them per round.
// Pool implements core.BlockSource.
//
// Depth is maintained as an atomic alongside the queue, updated inside the
// same critical section that mutates it, so concurrent readers (the gateway's
// admission control, which keys backpressure off mempool depth) always see
// the true post-mutation depth without taking the queue lock — not a stale
// snapshot that lags a concurrent submit or drain.
//
// The pool owns the bytes it queues: Submit copies each transaction into
// the pool's BlockSlab, shared 32 KiB chunks for all but the largest, so
// admission allocates once per chunk rather than once per transaction. The
// copy is read-only from then on — shared by the block, the block cache and
// the DAG. A chunk lives until the last block referring to it is dropped.
type Pool struct {
	mu          sync.Mutex
	queue       types.Queue[[]byte]
	blocks      types.BlockSlab // copies, and the blocks NextBlock drains into
	MaxPerBlock int

	depth     atomic.Int64
	submitted atomic.Uint64
}

// NewPool creates a pool draining at most maxPerBlock transactions per
// proposal (default 1000 if zero).
func NewPool(maxPerBlock int) *Pool {
	if maxPerBlock <= 0 {
		maxPerBlock = 1000
	}
	return &Pool{MaxPerBlock: maxPerBlock}
}

// Submit enqueues a copy of one transaction; tx itself is not retained, so
// the caller may reuse it as soon as Submit returns.
func (p *Pool) Submit(tx []byte) {
	p.mu.Lock()
	p.queue.Push(p.copyIn(tx))
	p.depth.Store(int64(p.queue.Len()))
	p.mu.Unlock()
	p.submitted.Add(1)
}

// copyIn returns the pool's copy of tx, capacity cut to the length so an
// append to one transaction can never reach its neighbour. Called with mu
// held.
func (p *Pool) copyIn(tx []byte) []byte {
	return append(p.blocks.Bytes(len(tx)), tx...)
}

// Depth returns the number of queued transactions. It is lock-free and
// exact: the value is published inside the Submit/NextBlock critical
// sections, so a reader racing a drain observes either the pre- or
// post-drain depth, never an inconsistent intermediate.
func (p *Pool) Depth() int { return int(p.depth.Load()) }

// Submitted counts all transactions ever accepted.
func (p *Pool) Submitted() uint64 { return p.submitted.Load() }

// NextBlock drains up to MaxPerBlock queued transactions. Returns nil when
// the pool is empty (an empty proposal keeps the DAG advancing without
// payload overhead). The block and its index are carved from the pool's
// BlockSlab; the queue zeroes the drained slots, so the block is the only
// holder of its transactions.
func (p *Pool) NextBlock(r types.Round) *types.Block {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := min(p.queue.Len(), p.MaxPerBlock)
	if n == 0 {
		return nil
	}
	txs := p.queue.Front(n)
	chunked := true
	for _, tx := range txs {
		chunked = chunked && len(tx) <= types.TxChunkSize/2
	}
	b := p.blocks.New(n, chunked)
	b.Txs = append(b.Txs, txs...)
	p.queue.Drop(n)
	p.depth.Store(int64(p.queue.Len()))
	return b
}
