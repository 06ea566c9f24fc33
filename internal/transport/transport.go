// Package transport defines how clanbft nodes exchange messages and observe
// time, and implements them on the wall clock with TCPEndpoint: real sockets
// and length-prefixed framing. The discrete-event simulator in
// internal/simnet is the other implementation, with virtual time.
//
// Protocol code is written against Endpoint + Clock only, so the same node
// logic runs unmodified under real sockets and under simulation. All inbound
// events for one node (messages and timer fires) are serialized: handlers
// never run concurrently with each other, which lets protocol state machines
// stay lock-free.
package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/types"
)

// Handler consumes inbound messages. Calls are serialized per node.
type Handler func(from types.NodeID, m types.Message)

// Verifier pre-verifies one inbound message on a crypto.VerifyPool worker,
// before the message enters the node's serialized mailbox. It returns false
// to drop the message (bad signature); on success it marks the message (see
// types.VerifyMark) so the handler can skip its inline verification. It is
// offered only messages from peers that can carry the mark: what a node sends
// to itself, and kinds with nothing to verify, go straight to the mailbox. A
// Verifier runs concurrently with the node's handler and with other Verifier
// calls, so it must only read immutable state (the key registry and the
// message itself).
type Verifier func(from types.NodeID, m types.Message) bool

// Endpoint is one node's handle on the network.
type Endpoint interface {
	// Self returns the node's own ID.
	Self() types.NodeID
	// Send transmits m to one party. Sending to self delivers locally
	// (serialized with other inbound events) without touching the wire or
	// the verify stage — a node has no use for checking its own signature
	// — and is the only way a handler sees from == Self.
	Send(to types.NodeID, m types.Message)
	// Multicast transmits m to each listed party (self allowed).
	Multicast(tos []types.NodeID, m types.Message)
	// Broadcast transmits m to every party in the system, including self.
	Broadcast(m types.Message)
	// SetHandler installs the inbound handler. Must be called before any
	// traffic arrives.
	SetHandler(h Handler)
	// SetDrainHook installs fn, which runs in the handler's serialized
	// context whenever the handler is about to go idle: after the last task
	// of a batch the endpoint ran back to back (a mailbox swap; under the
	// simulator, one message, one batched arrival or one timer), and before
	// it waits for anything that is not in yet (a verify verdict; a busy
	// CPU). What the handler's owner holds back across the calls of one
	// drain — to sign and frame it once — is therefore never held while the
	// handler waits. Call it before SetHandler installs the handler the hook
	// serves; a later call replaces the hook.
	SetDrainHook(fn func())
	// Stats reports cumulative traffic counters for this endpoint.
	Stats() Stats
	// Close tears the endpoint down.
	Close() error
}

// Stats counts what an endpoint put on the wire. Self-sends are excluded:
// they consume no network resources, matching how the paper accounts
// communication complexity. MsgsSent counts only frames actually enqueued
// toward a peer; frames lost before the wire are in MsgsDropped.
type Stats struct {
	MsgsSent  uint64
	BytesSent uint64
	MsgsRecv  uint64
	BytesRecv uint64
	// MsgsDropped counts outbound frames that never reached the wire: no
	// live peer entry (endpoint closing), a full per-peer queue, or a
	// failed socket write.
	MsgsDropped uint64

	// Framing counters (zero on simulated endpoints, which never touch
	// wire bytes).
	//
	// RxAllocBytes counts receive-side bytes the frame reader handled outside
	// a connection's read buffer's steady flow: tail bytes moved to the
	// buffer's front when a frame straddled its end, plus the buffers of
	// frames larger than it. It does not count what decoding copies out of a
	// frame (a block's transactions).
	RxAllocBytes uint64
	// CoalescedFrames counts outbound frames that shared another frame's
	// flush instead of costing their own syscall.
	CoalescedFrames uint64
	// Flushes counts writev syscalls issued by writer goroutines.
	Flushes uint64

	// Verification-pipeline counters (zero unless a Verifier is installed).
	VerifyQueued   uint64        // messages routed through the verify pool
	VerifyRejected uint64        // messages dropped for bad signatures
	VerifyPending  uint64        // messages currently awaiting a verdict
	VerifyLatency  time.Duration // mean submit-to-verdict latency

	// HandlerQueue is the instantaneous depth of the serialized handler
	// mailbox (the intake stage's queue; always 0 on simulated endpoints,
	// which deliver handler calls synchronously from the event loop).
	HandlerQueue uint64
}

// Clock abstracts time so the simulator can run on virtual time.
type Clock interface {
	// Now returns the time since the clock's epoch.
	Now() time.Duration
	// After schedules fn to run once after d, serialized with the owning
	// node's message handlers. The returned Timer can cancel it.
	After(d time.Duration, fn func()) Timer
	// Charge models CPU consumption: under simulation it advances the
	// node's local busy-time so that emitted messages and subsequent
	// events are delayed accordingly; under real clocks it is a no-op
	// (real cycles were really spent).
	Charge(d time.Duration)
}

// Timer is the handle of one After arm: the clock's timer and the arm's
// generation. Clocks recycle their timers, so a handle is a value and an arm
// allocates none; a handle kept past its arm — fired, stopped, the timer
// re-armed since — stops nothing. The zero Timer is no arm.
type Timer struct {
	t   Rearmable
	gen uint64
}

// Rearmable is a clock's timer as its handles see it.
type Rearmable interface {
	// StopArm cancels arm gen if it is still the timer's pending arm; it
	// reports whether the cancellation happened before the callback ran.
	StopArm(gen uint64) bool
}

// MakeTimer returns the handle of t's arm gen.
func MakeTimer(t Rearmable, gen uint64) Timer { return Timer{t, gen} }

// Stop cancels the arm if it has not fired; it reports whether the
// cancellation happened before the callback ran.
func (t Timer) Stop() bool { return t.t != nil && t.t.StopArm(t.gen) }

// IsZero reports whether t is the zero Timer.
func (t Timer) IsZero() bool { return t.t == nil }

// ---------------------------------------------------------------------------
// Serial executor: the per-node mailbox that serializes handler invocations
// for the wall-clock transport.

type task struct {
	from types.NodeID
	msg  types.Message
	fn   func()
	// gate, when non-nil, carries the verify pool's verdict for msg. The
	// mailbox loop waits on it before invoking the handler (preserving
	// arrival order while verification proceeds in parallel) and drops the
	// message on false.
	gate *verdict
}

// mailbox runs tasks one at a time in a dedicated goroutine.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []task // pending tasks; push appends under mu
	spare   []task // the loop's previous batch, emptied, for the next swap
	closed  bool
	started bool
	handler func(types.NodeID, types.Message)
	drained func() // see Endpoint.SetDrainHook; nil until an owner asks
	// pending counts tasks pushed and not yet run, including the batch the
	// loop is working through outside the lock.
	pending atomic.Int64
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go m.loop()
}

// loop takes everything queued in one swap per wake-up and runs it outside
// the lock, so a burst of n messages costs one lock round-trip instead of n
// and the two backing arrays are reused forever instead of creeping forward.
func (m *mailbox) loop() {
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return // closed and drained
		}
		batch := m.queue
		m.queue = m.spare
		h, drained := m.handler, m.drained
		m.mu.Unlock()
		for i := range batch {
			m.run(batch[i], h, drained)
			batch[i] = task{} // drop references before the array is reused
			m.pending.Add(-1)
		}
		m.spare = batch[:0] // only this goroutine touches spare
		if drained != nil {
			drained()
		}
	}
}

func (m *mailbox) run(t task, h func(types.NodeID, types.Message), drained func()) {
	if t.gate != nil && !t.gate.wait(drained) {
		return // signature rejected by the verify pool
	}
	if t.fn != nil {
		t.fn()
	} else if h != nil {
		h(t.from, t.msg)
	}
}

// push queues t and reports whether it will run: on a closed mailbox it will
// not.
func (m *mailbox) push(t task) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.queue = append(m.queue, t)
	m.pending.Add(1)
	m.cond.Signal()
	return true
}

// depth returns the instantaneous intake backlog.
func (m *mailbox) depth() int { return int(m.pending.Load()) }

func (m *mailbox) setHandler(h Handler) {
	m.mu.Lock()
	m.handler = h
	m.mu.Unlock()
}

func (m *mailbox) setDrainHook(fn func()) {
	m.mu.Lock()
	m.drained = fn
	m.mu.Unlock()
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Verification pipeline: parallel validate, serialized apply.

// verifyStage couples a Verifier with the pool that runs it. Endpoints hold
// it behind an atomic pointer so installation needs no lock on the hot path.
type verifyStage struct {
	verifier Verifier
	pool     *crypto.VerifyPool
}

// verifyCounters tracks per-endpoint pipeline statistics.
type verifyCounters struct {
	queued    atomic.Uint64
	rejected  atomic.Uint64
	pending   atomic.Int64
	latencyNs atomic.Int64
	verdicts  atomic.Uint64
}

func (c *verifyCounters) fill(s *Stats) {
	s.VerifyQueued = c.queued.Load()
	s.VerifyRejected = c.rejected.Load()
	if p := c.pending.Load(); p > 0 {
		s.VerifyPending = uint64(p)
	}
	if n := c.verdicts.Load(); n > 0 {
		s.VerifyLatency = time.Duration(c.latencyNs.Load() / int64(n))
	}
}

// verdict is one message's trip through the verify pool: the job a worker
// runs and the slot the mailbox loop reads the answer from. Verdicts are
// pooled, with the channel and the bound method value built once per object,
// so the steady state allocates nothing per message.
type verdict struct {
	vs    *verifyStage
	vc    *verifyCounters
	from  types.NodeID
	msg   types.Message
	start time.Time
	ok    chan bool // capacity 1: the worker never blocks on a slow mailbox
	run   func()    // v.verify, bound once
}

var verdictPool = sync.Pool{New: func() any {
	v := &verdict{ok: make(chan bool, 1)}
	v.run = v.verify
	return v
}}

// verify runs on a pool worker. The send is its last touch of v: the mailbox
// recycles the verdict as soon as it has the answer.
func (v *verdict) verify() {
	ok := v.vs.verifier(v.from, v.msg)
	v.vc.latencyNs.Add(int64(time.Since(v.start)))
	v.vc.verdicts.Add(1)
	v.vc.pending.Add(-1)
	if !ok {
		v.vc.rejected.Add(1)
	}
	v.ok <- ok
}

// wait blocks until the worker has answered, then recycles the verdict. When
// the answer is not in yet the mailbox is about to idle: idle (if any) runs
// first.
func (v *verdict) wait(idle func()) bool {
	var ok bool
	select {
	case ok = <-v.ok:
	default:
		if idle != nil {
			idle()
		}
		ok = <-v.ok
	}
	v.vs, v.vc, v.msg = nil, nil, nil
	verdictPool.Put(v)
	return ok
}

// dispatchInbound routes one message from a peer to the mailbox, through the
// verify stage when one is installed and the message can carry its mark: the
// kinds that embed no types.VerifyMark (block and vertex pulls, snapshots)
// have nothing a Verifier could check or record, so they skip the pool. The
// task is pushed immediately with its verdict attached — keeping per-sender
// FIFO order intact — while a pool worker verifies the signature; the mailbox
// loop blocks on the verdict only if it has not arrived by the time the
// message reaches the queue head.
func dispatchInbound(mb *mailbox, vs *verifyStage, vc *verifyCounters, from types.NodeID, m types.Message) {
	if _, signed := m.(types.PreVerifiable); vs == nil || !signed {
		mb.push(task{from: from, msg: m})
		return
	}
	v := verdictPool.Get().(*verdict)
	v.vs, v.vc, v.from, v.msg, v.start = vs, vc, from, m, time.Now()
	if !mb.push(task{from: from, msg: m, gate: v}) {
		return // closed: nothing to verify
	}
	vc.queued.Add(1)
	vc.pending.Add(1)
	vs.pool.Submit(v.run)
}

// ---------------------------------------------------------------------------
// RealClock: wall-clock time with callbacks serialized through a mailbox.

// realClock implements Clock over the wall clock for one endpoint. Its timers
// are recycled: a timer object, its time.Timer and its callbacks are made
// once, and an arm allocates nothing.
type realClock struct {
	epoch time.Time
	mb    *mailbox

	mu   sync.Mutex   // guards idle and every timer's gen and fn
	idle []*realTimer // fired or stopped, for After to re-arm
}

func (c *realClock) Now() time.Duration { return time.Since(c.epoch) }

func (c *realClock) After(d time.Duration, fn func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t *realTimer
	if k := len(c.idle); k > 0 {
		t, c.idle = c.idle[k-1], c.idle[:k-1]
		t.t.Reset(d)
	} else {
		t = &realTimer{c: c}
		run := t.run
		t.t = time.AfterFunc(d, func() { c.mb.push(task{fn: run}) })
	}
	t.gen++
	t.fn = fn
	return MakeTimer(t, t.gen)
}

func (c *realClock) Charge(time.Duration) {}

// realTimer is one recycled timer. gen counts its arms and their ends (Stop,
// or the callback taken to run), so a stale handle matches nothing.
type realTimer struct {
	c   *realClock
	t   *time.Timer
	gen uint64
	fn  func() // the armed callback; nil once stopped or taken
}

// run is the expired timer's mailbox task: Stop works until it begins.
func (t *realTimer) run() {
	c := t.c
	c.mu.Lock()
	fn := t.fn
	t.fn = nil
	t.gen++
	c.idle = append(c.idle, t)
	c.mu.Unlock()
	if fn != nil {
		fn()
	}
}

func (t *realTimer) StopArm(gen uint64) bool {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.gen != gen {
		return false // fired, stopped or re-armed since
	}
	t.gen++
	t.fn = nil
	if t.t.Stop() {
		c.idle = append(c.idle, t)
	} // else run is queued, or about to be, and does it
	return true
}
