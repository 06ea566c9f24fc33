// Package parallel is the dependency-aware parallel execution engine — the
// downstream half of the paper's agreement/execution separation (Section 1).
// Consensus fixes a total order; everything after that order is fixed is free
// to exploit intra- and cross-block parallelism, exactly as the Fabric
// dependency-aware committer exemplar does (SNIPPETS.md §1: serial ~900 tx/s
// to ~13k tx/s with per-level dynamic threading) and as Shoal++ argues at the
// protocol layer: once order is decided, throughput wins live downstream.
//
// The engine wraps an execution.Executor. For each batch of committed
// vertices (one block, or several consecutive blocks handed over together by
// the core exec stage's batch drain) it:
//
//  1. decodes every transaction and extracts its read/write set
//     (execution.AccessSet);
//  2. builds a conflict DAG over keys in committed order — read-after-write,
//     write-after-read, and write-after-write edges, intra-block and
//     cross-block alike — and collapses it into topological levels
//     (level(tx) = 1 + max level of its dependencies);
//  3. executes each level on a bounded worker pool: transactions in one
//     level touch pairwise-disjoint keys, so they run concurrently against
//     the executor's sharded state (Executor.ExecVersioned), with the
//     version stamps double-checking at run time that no same-level pair
//     shared a key;
//  4. seals results serially in committed order (Executor.Seal) — the
//     running state-root chain is the serial spine that makes divergence
//     detectable — then signs and emits responses, with the signing itself
//     parallelized (Ed25519 is deterministic, so signatures are
//     order-independent).
//
// Undecodable transactions fall back to serial: they become barriers that
// depend on everything before and gate everything after, occupying a level
// of their own. The degenerate workload where every transaction writes one
// key therefore levels into chains and executes serially — slower, never
// wrong.
//
// Determinism: the engine's output — state root, results, responses, emit
// order — is a pure function of the committed transaction sequence,
// independent of Workers and of how the sequence is partitioned into
// batches. Results are computed at a tx's dependency frontier (its level),
// sealing is serial, and batch boundaries only change scheduling, never
// data flow. Parallelism lives strictly below total order: the engine never
// feeds back into consensus, so the simulator schedule and committed
// sequence are byte-identical whether Workers is 1 or N.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"clanbft/internal/core"
	"clanbft/internal/execution"
	"clanbft/internal/metrics"
)

// Config parameterizes an engine.
type Config struct {
	// Workers bounds the level worker pool. <=0 defaults to GOMAXPROCS;
	// 1 executes serially (the baseline the benchmarks compare against).
	Workers int
	// Metrics, when non-nil, receives the engine's instruments under the
	// exec.* namespace: workers (gauge), batches/levels/conflicts/
	// parallel_txs/serial_txs/conflict_violations (counters), and the
	// derived conflict_rate / level_occupancy gauges (basis points and
	// hundredths — see DESIGN.md).
	Metrics *metrics.Registry
}

// Engine schedules committed blocks onto the executor. Not safe for
// concurrent use: exactly one goroutine (the core exec stage, or a test)
// may call Apply/ApplyBatch — which is the committed-order contract anyway.
type Engine struct {
	ex      *execution.Executor
	workers int

	// Per-batch scratch, reused across batches.
	entries    []entry
	lastWriter map[string]int
	readers    map[string][]int
	levels     [][]int

	mWorkers    *metrics.Gauge
	mBatches    *metrics.Counter
	mLevels     *metrics.Counter
	mConflicts  *metrics.Counter
	mParTxs     *metrics.Counter
	mSerTxs     *metrics.Counter
	mViolations *metrics.Counter
	mRate       *metrics.Gauge
	mOccupancy  *metrics.Gauge
}

type entry struct {
	raw     []byte
	tx      execution.Tx
	ok      bool // decoded; false = serial-fallback barrier
	level   int32
	barrier bool
	result  []byte
}

// New builds an engine over ex.
func New(ex *execution.Executor, cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	g := &Engine{
		ex:         ex,
		workers:    w,
		lastWriter: map[string]int{},
		readers:    map[string][]int{},
	}
	if cfg.Metrics != nil {
		g.mWorkers = cfg.Metrics.Gauge("exec.workers")
		g.mBatches = cfg.Metrics.Counter("exec.batches")
		g.mLevels = cfg.Metrics.Counter("exec.levels")
		g.mConflicts = cfg.Metrics.Counter("exec.conflicts")
		g.mParTxs = cfg.Metrics.Counter("exec.parallel_txs")
		g.mSerTxs = cfg.Metrics.Counter("exec.serial_txs")
		g.mViolations = cfg.Metrics.Counter("exec.conflict_violations")
		g.mRate = cfg.Metrics.Gauge("exec.conflict_rate")
		g.mOccupancy = cfg.Metrics.Gauge("exec.level_occupancy")
		g.mWorkers.Set(int64(w))
	}
	return g
}

// Executor returns the wrapped executor (state root, Get, snapshots).
func (g *Engine) Executor() *execution.Executor { return g.ex }

// Workers reports the pool bound.
func (g *Engine) Workers() int { return g.workers }

// Apply executes one committed vertex's block — a drop-in replacement for
// Executor.Apply with intra-block parallelism.
func (g *Engine) Apply(cv core.CommittedVertex) {
	g.ApplyBatch([]core.CommittedVertex{cv})
}

// ApplyBatch executes a run of consecutive committed vertices as one
// conflict DAG, exploiting cross-block parallelism within the committed
// order. The caller hands over vertices in delivery order; output is
// identical for any batch partitioning of the same sequence.
func (g *Engine) ApplyBatch(cvs []core.CommittedVertex) {
	// Gather the batch's transactions in committed order. Vertices whose
	// blocks this party does not hold (other clans) or that are synthetic
	// carry nothing to execute — same skip rule as Executor.Apply.
	es := g.entries[:0]
	for _, cv := range cvs {
		if cv.Block == nil || cv.Block.IsSynthetic() {
			continue
		}
		for _, raw := range cv.Block.Txs {
			es = append(es, entry{raw: raw})
		}
	}
	g.entries = es
	if len(es) == 0 {
		return
	}
	if g.mBatches != nil {
		g.mBatches.Inc()
	}

	// Phase 1: decode + access-set extraction. Independent per tx; worth
	// parallelizing only for large batches (decode is cheap).
	if g.workers > 1 && len(es) >= 256 {
		g.parallelDo(len(es), func(i int) {
			es[i].tx, es[i].ok = execution.DecodeTx(es[i].raw)
		})
	} else {
		for i := range es {
			es[i].tx, es[i].ok = execution.DecodeTx(es[i].raw)
		}
	}

	// Phase 2: conflict DAG → topological levels, serially in committed
	// order. Dependencies: a reader depends on its key's last writer; a
	// writer depends on its key's last writer AND every reader since (WW,
	// RAW, WAR). Barriers (undecodable txs) depend on everything before
	// and gate everything after.
	clear(g.lastWriter)
	clear(g.readers)
	maxLevel := int32(-1)
	lastBarrier := -1
	conflicted := 0
	for i := range es {
		e := &es[i]
		if !e.ok {
			// Serial fallback: own the next level exclusively.
			e.barrier = true
			e.level = maxLevel + 1
			maxLevel = e.level
			lastBarrier = i
			conflicted++
			continue
		}
		lvl := int32(0)
		deps := 0
		bump := func(j int) {
			deps++
			if l := es[j].level + 1; l > lvl {
				lvl = l
			}
		}
		if lastBarrier >= 0 {
			bump(lastBarrier)
			deps-- // ordering fence, not a data conflict
		}
		acc := e.tx.Access()
		if acc.Read != nil {
			if w, ok := g.lastWriter[string(acc.Read)]; ok {
				bump(w)
			}
			g.readers[string(acc.Read)] = append(g.readers[string(acc.Read)], i)
		}
		if acc.Write != nil {
			k := string(acc.Write)
			if w, ok := g.lastWriter[k]; ok {
				bump(w)
			}
			for _, r := range g.readers[k] {
				bump(r)
			}
			g.lastWriter[k] = i
			delete(g.readers, k)
		}
		e.level = lvl
		if lvl > maxLevel {
			maxLevel = lvl
		}
		if deps > 0 {
			conflicted++
		}
	}

	// Bucket indices by level, reusing the level slices.
	nLevels := int(maxLevel) + 1
	for len(g.levels) < nLevels {
		g.levels = append(g.levels, nil)
	}
	levels := g.levels[:nLevels]
	for l := range levels {
		levels[l] = levels[l][:0]
	}
	for i := range es {
		levels[es[i].level] = append(levels[es[i].level], i)
	}

	// Phase 3: execute level by level. baseSeq is the executor's position
	// in the global committed order before this batch, so ver stamps match
	// what the serial path would have written.
	baseSeq := uint64(g.ex.Executed)
	violations := uint64(0)
	run := func(i int) {
		e := &es[i]
		if !e.ok {
			e.result = execution.ResultMalformed
			return
		}
		var observed uint64
		e.result, observed = g.ex.ExecVersioned(e.tx, baseSeq+uint64(i)+1)
		// Versioned-apply cross-check: the value a tx observed must come
		// from an earlier level (or from before the batch). A same-level
		// version means the conflict DAG missed an edge.
		if observed > baseSeq {
			if j := int(observed - baseSeq - 1); j < len(es) && es[j].level == e.level && j != i {
				atomic.AddUint64(&violations, 1)
			}
		}
	}
	for _, lvl := range levels {
		if g.workers <= 1 || len(lvl) < 2 {
			for _, i := range lvl {
				run(i)
			}
			continue
		}
		idxs := lvl
		g.parallelDo(len(idxs), func(k int) { run(idxs[k]) })
	}

	// Phase 4: seal serially in committed order (the root chain), then
	// sign in parallel and emit in order. Responses are byte-identical to
	// the serial path: Ed25519 signing is deterministic.
	var resps []execution.Response
	for i := range es {
		r, emit := g.ex.Seal(es[i].raw, es[i].result)
		if emit {
			resps = append(resps, r)
		}
	}
	if len(resps) > 0 {
		if g.workers > 1 && len(resps) >= 2 {
			g.parallelDo(len(resps), func(i int) { g.ex.SignResponse(&resps[i]) })
		} else {
			for i := range resps {
				g.ex.SignResponse(&resps[i])
			}
		}
		for i := range resps {
			g.ex.Emit(resps[i])
		}
	}

	g.record(len(es), nLevels, conflicted, violations)

	// Drop payload references so a pooled/borrowed block released by the
	// caller is not pinned by the engine's scratch.
	for i := range es {
		es[i] = entry{}
	}
}

// record updates the engine's metrics after a batch.
func (g *Engine) record(txs, nLevels, conflicted int, violations uint64) {
	if g.mLevels == nil {
		return
	}
	g.mLevels.Add(uint64(nLevels))
	g.mConflicts.Add(uint64(conflicted))
	if g.workers > 1 {
		g.mParTxs.Add(uint64(txs))
	} else {
		g.mSerTxs.Add(uint64(txs))
	}
	g.mViolations.Add(violations)
	// Lifetime derived gauges: conflict_rate in basis points of all
	// transactions ever scheduled, level_occupancy in hundredths of
	// transactions per level.
	total := g.mParTxs.Load() + g.mSerTxs.Load()
	if total > 0 {
		g.mRate.Set(int64(g.mConflicts.Load() * 10000 / total))
	}
	if l := g.mLevels.Load(); l > 0 {
		g.mOccupancy.Set(int64(total * 100 / l))
	}
}

// parallelDo runs fn(0..n-1) across the worker pool and waits. Tasks are
// claimed via an atomic cursor, so uneven task costs balance dynamically —
// the per-level thread count adapts to the level's width, capped by
// Workers (the exemplar's "dynamic threads" strategy).
func (g *Engine) parallelDo(n int, fn func(int)) {
	w := g.workers
	if w > n {
		w = n
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w - 1)
	body := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	for k := 1; k < w; k++ {
		go func() {
			defer wg.Done()
			body()
		}()
	}
	body() // the caller is worker 0
	wg.Wait()
}
