package crypto

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// VerifyPool is a bounded worker pool that runs signature verifications off
// the per-node serialized handler goroutine. The paper's implementation notes
// parallelize aggregate-signature verification; the pool realizes that for
// real transports: inbound messages are verified by GOMAXPROCS workers while
// the handler applies already-verified messages in arrival order (parallel
// validate, serialized apply).
//
// Workers drain submissions in batches to amortize channel wakeups. True
// batched Ed25519 verification (shared double-scalar multiplication) is not
// available in the standard library, so batching amortizes dispatch overhead
// rather than curve operations; the per-core division of Costs.Parallel
// remains the faithful cost model.
//
// Submissions block when the queue is full, which backpressures transport
// read loops instead of growing memory without bound. After Close, Submit
// runs jobs inline on the caller's goroutine so no pending completion is
// ever lost.
type VerifyPool struct {
	mu     sync.Mutex
	jobs   chan verifyJob
	closed bool
	wg     sync.WaitGroup

	workers   int
	submitted atomic.Uint64
	completed atomic.Uint64
	depth     atomic.Int64
	maxDepth  atomic.Int64
	latencyNs atomic.Int64
}

type verifyJob struct {
	run func()
	enq time.Time
}

// verifyBatchSize bounds how many queued jobs one worker wakeup drains.
const verifyBatchSize = 32

// NewVerifyPool creates a pool with the given number of workers (<= 0 means
// GOMAXPROCS) and a queue of queueLen pending jobs (<= 0 picks a default
// deep enough to keep every worker busy across a batch).
func NewVerifyPool(workers, queueLen int) *VerifyPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueLen <= 0 {
		queueLen = workers * 4 * verifyBatchSize
	}
	p := &VerifyPool{jobs: make(chan verifyJob, queueLen), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Submit enqueues fn for execution on a pool worker. It blocks while the
// queue is full; on a closed pool it runs fn inline.
func (p *VerifyPool) Submit(fn func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		fn()
		return
	}
	p.submitted.Add(1)
	if d := p.depth.Add(1); d > p.maxDepth.Load() {
		p.maxDepth.Store(d)
	}
	// The send happens under mu so Close (which also takes mu) can never
	// close the channel out from under a blocked submitter; workers drain
	// independently, so a full queue resolves without the lock.
	p.jobs <- verifyJob{run: fn, enq: time.Now()}
	p.mu.Unlock()
}

func (p *VerifyPool) worker() {
	defer p.wg.Done()
	batch := make([]verifyJob, 0, verifyBatchSize)
	for {
		j, ok := <-p.jobs
		if !ok {
			return
		}
		batch = append(batch[:0], j)
		open := true
	drain:
		for len(batch) < cap(batch) {
			select {
			case j2, ok2 := <-p.jobs:
				if !ok2 {
					open = false
					break drain
				}
				batch = append(batch, j2)
			default:
				break drain
			}
		}
		for _, jb := range batch {
			jb.run()
			p.latencyNs.Add(int64(time.Since(jb.enq)))
			p.depth.Add(-1)
			p.completed.Add(1)
		}
		if !open {
			return
		}
	}
}

// Close stops the pool after draining every queued job. It is idempotent.
func (p *VerifyPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}

// VerifyPoolStats is a point-in-time snapshot of pool counters.
type VerifyPoolStats struct {
	Workers    int
	Submitted  uint64
	Completed  uint64
	Depth      int64         // jobs submitted but not yet completed
	MaxDepth   int64         // high-water mark of Depth
	AvgLatency time.Duration // mean submit-to-completion latency
}

// Stats snapshots the pool's counters.
func (p *VerifyPool) Stats() VerifyPoolStats {
	s := VerifyPoolStats{
		Workers:   p.workers,
		Submitted: p.submitted.Load(),
		Completed: p.completed.Load(),
		Depth:     p.depth.Load(),
		MaxDepth:  p.maxDepth.Load(),
	}
	if s.Completed > 0 {
		s.AvgLatency = time.Duration(p.latencyNs.Load() / int64(s.Completed))
	}
	return s
}
