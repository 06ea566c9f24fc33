package core

import (
	"sync"
	"time"

	"clanbft/internal/metrics"
	"clanbft/internal/types"
)

// Stage 4 of the commit pipeline: execution/commit. The ordering stage emits
// a deterministic sequence of CommittedVertex values; this stage runs the
// application's Deliver callback over them, one vertex at a time.
//
// emitCommitted hands each vertex to execStage, which runs the callback on
// its own goroutine. The backpressure contract: the handoff NEVER blocks the
// handler — a bounded channel of execQueue entries is the fast path, and
// when it is full the vertex spills to an unbounded staging ring (counted by
// exec.backpressure and visible in exec.queue_depth) that refills the
// channel as the executor drains. Commit order is preserved exactly; only
// timing decouples, so consensus timing is independent of execution cost,
// and a persistently growing exec.queue_depth is the signal for the
// application to throttle its BlockSource. The producer side takes no
// clock-dependent action, so under the discrete-event simulator the message
// schedule — and therefore the committed sequence — does not depend on how
// long Deliver takes. Whoever reads what Deliver produced calls Node.Flush
// first; Node.Stop abandons undelivered entries (crash semantics — recovery
// re-emits the order from the store).
//
// The stage is the only part of the node that runs application code, so it
// measures with real wall time (time.Now), never the node's virtual clock —
// the virtual clock is owned by the simulator goroutine and must not be read
// from here (use CommittedVertex.OrderedAt for protocol-time measurements).
//
// Metrics: exec.queue_wait is push→dequeue time (scheduling delay — how far
// execution lags ordering); exec.deliver is callback wall time (application
// cost). The two were previously conflated in one exec.latency histogram,
// which made a slow application indistinguishable from a backed-up queue.

// execQueue is the capacity of the stage's channel: how many committed
// vertices wait for the executor before the rest spill (exec.backpressure).
// At 256 a round's commits fit at every n the benchmark and the simulated
// experiments run, so the spill ring stays a backlog path.
const execQueue = 256

type execItem struct {
	cv  CommittedVertex
	enq time.Time
}

const (
	// spillRetainCap bounds the spill backing array kept across bursts.
	// After a full drain, anything larger is released to the allocator —
	// a burst-sized array would otherwise be pinned for the node's
	// lifetime (along with nothing live in it, since entries are zeroed,
	// but still megabytes of dead capacity after a large backlog).
	spillRetainCap = 64
	// spillCompactAt is the dead-prefix length that triggers mid-drain
	// compaction when the prefix dominates the slice, so a long-lived
	// partially-drained backlog cannot hold double its live footprint.
	spillCompactAt = 1024
)

// execStage runs the delivery callback on a dedicated goroutine behind a
// bounded channel.
type execStage struct {
	deliver func(CommittedVertex)
	ch      chan execItem

	mu sync.Mutex
	// Spill ring: the live region is overflow[spillHead:]. push appends,
	// popSpill advances spillHead and zeroes the slot; the backing array
	// is released or compacted per spillRetainCap/spillCompactAt above.
	overflow  []execItem
	spillHead int
	idle      sync.Cond
	enqueued  uint64
	completed uint64
	stopped   bool

	quit chan struct{}
	wg   sync.WaitGroup

	depth *metrics.Gauge
	spill *metrics.Counter
	done  *metrics.Counter
	txs   *metrics.Counter
	qwait *metrics.Histogram
	dlat  *metrics.Histogram
}

func newExecStage(deliver func(CommittedVertex), queue int, reg *metrics.Registry) *execStage {
	e := &execStage{
		deliver: deliver,
		ch:      make(chan execItem, queue),
		quit:    make(chan struct{}),
		depth:   reg.Gauge(types.StageExec.Metric("queue_depth")),
		spill:   reg.Counter(types.StageExec.Metric("backpressure")),
		done:    reg.Counter(types.StageExec.Metric("committed")),
		txs:     reg.Counter(types.StageExec.Metric("txs")),
		qwait:   reg.Histogram(types.StageExec.Metric("queue_wait")),
		dlat:    reg.Histogram(types.StageExec.Metric("deliver")),
	}
	e.idle.L = &e.mu
	e.wg.Add(1)
	go e.loop()
	return e
}

// push hands a committed vertex to the executor. It never blocks and never
// touches any clock the caller's scheduler depends on — the backpressure
// contract the ordering stage relies on.
func (e *execStage) push(cv CommittedVertex) {
	it := execItem{cv: cv, enq: time.Now()}
	e.mu.Lock()
	e.enqueued++
	e.depth.Set(int64(e.enqueued - e.completed))
	if e.spillLen() == 0 {
		select {
		case e.ch <- it:
			e.mu.Unlock()
			return
		default:
		}
	}
	e.overflow = append(e.overflow, it)
	e.spill.Inc()
	e.mu.Unlock()
}

// spillLen is the number of live spilled items. mu must be held.
func (e *execStage) spillLen() int { return len(e.overflow) - e.spillHead }

// popSpill removes and returns the oldest spilled item, zeroing its slot so
// the delivered block is collectable immediately. mu must be held.
func (e *execStage) popSpill() execItem {
	it := e.overflow[e.spillHead]
	e.overflow[e.spillHead] = execItem{}
	e.spillHead++
	switch {
	case e.spillHead == len(e.overflow):
		// Fully drained. Releasing an oversized backing array here is
		// the actual fix for the historical leak: the previous
		// implementation resliced (overflow = overflow[1:]), which
		// keeps the whole burst-sized array reachable forever.
		if cap(e.overflow) > spillRetainCap {
			e.overflow = nil
		} else {
			e.overflow = e.overflow[:0]
		}
		e.spillHead = 0
	case e.spillHead >= spillCompactAt && e.spillHead*2 >= len(e.overflow):
		// The dead prefix dominates a still-live backlog: slide the
		// live region down and zero the vacated tail.
		n := copy(e.overflow, e.overflow[e.spillHead:])
		tail := e.overflow[n:len(e.overflow)]
		for i := range tail {
			tail[i] = execItem{}
		}
		e.overflow = e.overflow[:n]
		e.spillHead = 0
	}
	return it
}

// refillLocked moves spilled items into the channel, oldest first, until the
// channel fills or the spill empties. mu must be held.
func (e *execStage) refillLocked() {
	for e.spillLen() > 0 {
		select {
		case e.ch <- e.overflow[e.spillHead]:
			e.popSpill()
		default:
			return
		}
	}
}

func (e *execStage) loop() {
	defer e.wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case it := <-e.ch:
			e.run(it)
		}
	}
}

func (e *execStage) run(it execItem) {
	e.qwait.Observe(time.Since(it.enq))
	start := time.Now()
	if e.deliver != nil {
		e.deliver(it.cv)
	}
	e.dlat.Observe(time.Since(start))
	e.done.Inc()
	if it.cv.Block != nil {
		e.txs.Add(uint64(it.cv.Block.TxCount()))
	}
	e.finish()
}

// finish retires one delivered vertex: advances the completion counter,
// refills the channel from the spill ring, and wakes flush waiters.
func (e *execStage) finish() {
	e.mu.Lock()
	e.completed++
	e.depth.Set(int64(e.enqueued - e.completed))
	e.refillLocked()
	if e.completed == e.enqueued {
		e.idle.Broadcast()
	}
	e.mu.Unlock()
}

// flush blocks until every pushed vertex has been delivered, or the stage
// has been stopped (crash semantics: undelivered entries are abandoned —
// recovery re-emits the order from the store).
func (e *execStage) flush() {
	e.mu.Lock()
	for !e.stopped && e.completed != e.enqueued {
		e.idle.Wait()
	}
	e.mu.Unlock()
}

// stop terminates the executor goroutine after its in-flight delivery (if
// any) returns. Queued-but-undelivered vertices are dropped.
func (e *execStage) stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	close(e.quit)
	e.idle.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

// emitCommitted is the ordering stage's handoff into execution. It runs in
// the serialized handler context.
func (n *Node) emitCommitted(cv CommittedVertex) { n.exec.push(cv) }

// Flush blocks until the execution stage has delivered every vertex ordered
// so far (returns at once after Stop). Call it before reading state produced
// by Deliver callbacks.
func (n *Node) Flush() { n.exec.flush() }
