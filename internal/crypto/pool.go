package crypto

import (
	"runtime"
	"sync"
)

// VerifyPool is a bounded worker pool that runs signature verifications off
// the per-node serialized handler goroutine. The paper's implementation notes
// parallelize aggregate-signature verification; the pool realizes that for
// real transports: inbound messages are verified by GOMAXPROCS workers while
// the handler applies already-verified messages in arrival order (parallel
// validate, serialized apply). Each worker runs one job at a time off one
// shared channel.
//
// Submissions block when the queue is full, which backpressures transport
// read loops instead of growing memory without bound. After Close, Submit
// runs jobs inline on the caller's goroutine so no pending completion is
// ever lost.
type VerifyPool struct {
	mu     sync.Mutex
	jobs   chan func()
	closed bool
	wg     sync.WaitGroup
}

// NewVerifyPool creates a pool with the given number of workers (<= 0 means
// GOMAXPROCS) and a queue of queueLen pending jobs (<= 0 picks a default of
// 128 per worker).
func NewVerifyPool(workers, queueLen int) *VerifyPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueLen <= 0 {
		queueLen = workers * 128
	}
	p := &VerifyPool{jobs: make(chan func(), queueLen)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for fn := range p.jobs {
				fn()
			}
		}()
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
	// The send happens under mu so Close (which also takes mu) can never
	// close the channel out from under a blocked submitter; workers drain
	// independently, so a full queue resolves without the lock.
	p.jobs <- fn
	p.mu.Unlock()
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
