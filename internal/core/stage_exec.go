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
// its own goroutine. The handoff NEVER blocks the handler: the vertex joins
// one unbounded queue (visible in exec.queue_depth) that the executor drains
// in push order. Commit order is preserved exactly; only timing decouples, so
// consensus timing is independent of execution cost, and a persistently
// growing exec.queue_depth is the signal for the application to throttle its
// BlockSource. The producer side takes no clock-dependent action, so under
// the discrete-event simulator the message schedule — and therefore the
// committed sequence — does not depend on how long Deliver takes. Whoever
// reads what Deliver produced calls Node.Flush first; Node.Stop abandons
// undelivered entries (crash semantics — recovery re-emits the order from
// the store).
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

type execItem struct {
	cv  CommittedVertex
	enq time.Time
}

// execStage runs the delivery callback on a dedicated goroutine behind one
// queue.
type execStage struct {
	deliver func(CommittedVertex)

	mu        sync.Mutex
	queue     types.Queue[execItem]
	wake      sync.Cond // signalled by push and stop
	idle      sync.Cond // broadcast when the last pushed vertex is delivered, and by stop
	enqueued  uint64
	completed uint64
	stopped   bool
	wg        sync.WaitGroup

	depth *metrics.Gauge
	done  *metrics.Counter
	txs   *metrics.Counter
	qwait *metrics.Histogram
	dlat  *metrics.Histogram
}

func newExecStage(deliver func(CommittedVertex), reg *metrics.Registry) *execStage {
	e := &execStage{
		deliver: deliver,
		depth:   reg.Gauge(types.StageExec.Metric("queue_depth")),
		done:    reg.Counter(types.StageExec.Metric("committed")),
		txs:     reg.Counter(types.StageExec.Metric("txs")),
		qwait:   reg.Histogram(types.StageExec.Metric("queue_wait")),
		dlat:    reg.Histogram(types.StageExec.Metric("deliver")),
	}
	e.wake.L = &e.mu
	e.idle.L = &e.mu
	e.wg.Add(1)
	go e.loop()
	return e
}

// push hands a committed vertex to the executor. It never blocks and never
// touches any clock the caller's scheduler depends on — the contract the
// ordering stage relies on. After stop it drops the vertex.
func (e *execStage) push(cv CommittedVertex) {
	it := execItem{cv: cv, enq: time.Now()}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	e.queue.Push(it)
	e.enqueued++
	e.depth.Set(int64(e.enqueued - e.completed))
	e.wake.Signal()
}

// loop delivers queued vertices one at a time, outside the lock, until stop.
func (e *execStage) loop() {
	defer e.wg.Done()
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		for e.queue.Len() == 0 && !e.stopped {
			e.wake.Wait()
		}
		if e.stopped {
			return
		}
		it := e.queue.Front(1)[0]
		e.queue.Drop(1)
		e.mu.Unlock()
		e.run(it)
		e.mu.Lock()
		e.completed++
		e.depth.Set(int64(e.enqueued - e.completed))
		if e.completed == e.enqueued {
			e.idle.Broadcast()
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
	e.queue.Drop(e.queue.Len())
	e.wake.Broadcast()
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
