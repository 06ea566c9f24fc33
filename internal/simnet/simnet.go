// Package simnet is a deterministic discrete-event network simulator that
// implements transport.Endpoint and transport.Clock on virtual time. It is
// the substitute for the paper's geo-distributed GCP deployment: nodes are
// assigned to regions connected by the paper's own Table 1 ping matrix, each
// node has a finite-bandwidth NIC in both directions (e2-standard-32: up to
// 16 Gbps), and handler CPU time can be charged to the virtual clock. It
// models links, NICs and CPU and nothing else: faults (drops, delays,
// partitions, crashes) are internal/faults' wrapping endpoint.
//
// The simulator is single-threaded and fully deterministic for a given seed:
// every experiment is exactly reproducible.
//
// Model:
//
//   - Transmit: a message of s bytes sent by node i at time t leaves i's NIC
//     at dep = max(t, txFree[i]) + s/bw; txFree[i] = dep. Broadcasts
//     serialize through the same NIC — this is the bandwidth bottleneck that
//     limits DAG BFT at scale (Section 1 of the paper).
//   - Propagate: the frame arrives at j's NIC at dep + owl(i,j) + jitter,
//     where owl is half the Table 1 RTT.
//   - Receive: inbound frames serialize through j's receive NIC at the same
//     rate; delivery completes after the store-and-forward delay.
//   - Compute: transport.Clock.Charge(d) accumulates CPU time; a busy node
//     delays its subsequent event processing accordingly (this models the
//     BLS verification and store-read costs the paper blames for latency
//     growth at n=150).
//   - Drains: after every event that ran a node's code — one message, all
//     messages of a batched arrival, one timer callback — and before a
//     batched arrival pauses for a busy CPU, the endpoint calls its drain
//     hook (transport.Endpoint.SetDrainHook), as a mailbox does when it
//     idles. The hook's sends leave after the CPU the drain charged.
//
// Events within `quantum` (250 microseconds) of each other may be
// processed in bucket order rather than exact order; all experiment-scale
// effects are orders of magnitude above this resolution.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// RegionNames are the five GCP regions of the paper's evaluation (Table 1).
var RegionNames = []string{
	"us-east1", "us-west1", "europe-north1", "asia-northeast1", "australia-southeast1",
}

// Table1RTTms is the paper's Table 1: round-trip latencies in milliseconds
// between GCP regions (rows = source, cols = destination).
var Table1RTTms = [5][5]float64{
	{0.75, 66.14, 114.75, 160.28, 197.98},
	{66.15, 0.66, 158.13, 89.56, 138.33},
	{115.40, 158.38, 0.69, 245.15, 295.13},
	{159.89, 90.05, 246.01, 0.66, 105.58},
	{197.60, 139.02, 294.36, 108.26, 0.58},
}

// Config parameterizes a simulated network.
type Config struct {
	// N is the number of nodes.
	N int
	// Regions assigns each node a region index into Latency. Nil puts
	// every node in region 0.
	Regions []int
	// LatencyRTTms is the region-to-region round-trip matrix in
	// milliseconds. Nil uses Table1RTTms (requires region indices < 5).
	LatencyRTTms [][]float64
	// BandwidthBps is each node's NIC rate in bits per second, both
	// directions. Default 16e9 (paper's e2-standard-32 cap).
	BandwidthBps float64
	// PerFlowWindow models TCP's bandwidth-delay limit on each (src,dst)
	// flow: a flow moves at most PerFlowWindow bytes per RTT, so its
	// throughput is PerFlowWindow/RTT — the reason a 16 Gbps NIC cannot
	// be saturated by one cross-continent connection. Zero disables
	// per-flow pacing (every flow runs at NIC rate).
	PerFlowWindow int
	// Seed drives jitter and any scripted randomness.
	Seed int64
	// JitterPct randomizes each one-way latency by +-pct (default 0.02).
	// Zero jitter can be forced with JitterPct = -1.
	JitterPct float64
	// BatchWindow coalesces small messages to the same destination into
	// one wire frame flushed after this delay, as production BFT
	// implementations do. Zero disables batching (every message is its
	// own frame). Messages of batchBypass bytes or more always flush
	// immediately.
	BatchWindow time.Duration
}

// batchBypass is the size at which a message skips batching.
const batchBypass = 16 << 10

// EvenRegions spreads n nodes round-robin across r regions, mirroring the
// paper's "distributed nodes evenly across five GCP regions".
func EvenRegions(n, r int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % r
	}
	return out
}

// event kinds. Typed events (instead of closures) keep the hot path
// allocation-free: message events are pooled and recycled.
const (
	evArrival uint8 = iota // frame reached dst's NIC; apply rx serialization
	evDeliver              // frame fully received; run the handler
	evTimer                // user timer callback
	evFlush                // flush a sender's per-destination batch
)

type event struct {
	at   int64 // ns
	seq  uint64
	kind uint8
	dst  *simEndpoint
	from types.NodeID // message sender; for evFlush: the batch's destination
	msg  types.Message
	msgs []types.Message // batched arrival (msg == nil)
	idx  int             // resume position within msgs
	size int
	fn   func() // evTimer only
	dead bool   // cancelled timer or already-fired marker
	gen  uint64 // counts the event's reuses, so a stale Timer matches nothing
}

// Net is the simulated network.
type Net struct {
	cfg           Config
	nowNS         int64
	seq           uint64
	rng           *rand.Rand
	eps           []*simEndpoint
	owlNS         [][]int64   // one-way latency ns by region pair
	flowNSPerByte [][]float64 // per-flow pacing (ns/byte) by region pair
	byteRate      float64     // bytes per ns

	wheel    [][]*event
	wheelPos int64 // bucket index corresponding to wheel slot 0's time base
	overflow eventHeap
	pending  int
	free     []*event          // recycled message events
	freeBufs [][]*event        // recycled bucket slices
	freeMsgs [][]types.Message // recycled batch slices

	// totalBytes/totalMsgs count wire traffic by message kind for the
	// communication-complexity experiments (dense array: kinds are small).
	totalBytes [64]uint64
	totalMsgs  [64]uint64
}

const (
	quantum    = int64(250 * time.Microsecond) // event-ordering resolution, ns
	wheelSlots = 1 << 14                       // horizon = slots * quantum (4.1 s)
)

// New builds a simulated network.
func New(cfg Config) *Net {
	if cfg.N <= 0 {
		panic("simnet: N must be positive")
	}
	if cfg.Regions == nil {
		cfg.Regions = make([]int, cfg.N)
	}
	if len(cfg.Regions) != cfg.N {
		panic("simnet: len(Regions) != N")
	}
	if cfg.BandwidthBps == 0 {
		cfg.BandwidthBps = 16e9
	}
	if cfg.JitterPct == 0 {
		cfg.JitterPct = 0.02
	} else if cfg.JitterPct < 0 {
		cfg.JitterPct = 0
	}
	var lat [][]float64
	if cfg.LatencyRTTms == nil {
		lat = make([][]float64, 5)
		for i := range lat {
			lat[i] = Table1RTTms[i][:]
		}
	} else {
		lat = cfg.LatencyRTTms
	}
	nRegions := len(lat)
	for _, r := range cfg.Regions {
		if r < 0 || r >= nRegions {
			panic(fmt.Sprintf("simnet: region %d out of range", r))
		}
	}
	n := &Net{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		byteRate: cfg.BandwidthBps / 8 / 1e9, // bytes per ns
		wheel:    make([][]*event, wheelSlots),
	}
	n.owlNS = make([][]int64, nRegions)
	n.flowNSPerByte = make([][]float64, nRegions)
	for i := range n.owlNS {
		n.owlNS[i] = make([]int64, nRegions)
		n.flowNSPerByte[i] = make([]float64, nRegions)
		for j := range n.owlNS[i] {
			n.owlNS[i][j] = int64(lat[i][j] / 2 * float64(time.Millisecond))
			nsPerByte := 1 / n.byteRate // NIC pace
			if cfg.PerFlowWindow > 0 {
				rttNS := lat[i][j] * float64(time.Millisecond)
				if flow := rttNS / float64(cfg.PerFlowWindow); flow > nsPerByte {
					nsPerByte = flow
				}
			}
			n.flowNSPerByte[i][j] = nsPerByte
		}
	}
	for i := 0; i < cfg.N; i++ {
		ep := &simEndpoint{net: n, id: types.NodeID(i), region: cfg.Regions[i]}
		if cfg.BatchWindow > 0 {
			ep.batches = make([]outBatch, cfg.N)
		}
		n.eps = append(n.eps, ep)
	}
	return n
}

// Endpoint returns node id's transport endpoint.
func (n *Net) Endpoint(id types.NodeID) transport.Endpoint { return n.eps[id] }

// TotalBytes reports cumulative wire bytes by message kind.
func (n *Net) TotalBytes() map[types.MsgKind]uint64 {
	out := map[types.MsgKind]uint64{}
	for k, v := range n.totalBytes {
		if v > 0 {
			out[types.MsgKind(k)] = v
		}
	}
	return out
}

// TotalMsgs reports cumulative wire messages by message kind.
func (n *Net) TotalMsgs() map[types.MsgKind]uint64 {
	out := map[types.MsgKind]uint64{}
	for k, v := range n.totalMsgs {
		if v > 0 {
			out[types.MsgKind(k)] = v
		}
	}
	return out
}

// Clock returns node id's virtual clock.
func (n *Net) Clock(id types.NodeID) transport.Clock { return n.eps[id] }

// Now returns the current virtual time.
func (n *Net) Now() time.Duration { return time.Duration(n.nowNS) }

// alloc pops a pooled event or makes a new one. Pooled events have msg/dst
// cleared by recycle; remaining fields are overwritten by the caller.
func (n *Net) alloc() *event {
	if last := len(n.free) - 1; last >= 0 {
		ev := n.free[last]
		n.free = n.free[:last]
		ev.dead = false
		return ev
	}
	return &event{}
}

// recycle returns a fired or cancelled event to the pool. A Timer may still
// name a timer event, so the event's generation moves on: the handle stops
// nothing from here. Batch slices are recycled separately: once delivered,
// nothing else references them.
func (n *Net) recycle(ev *event) {
	ev.gen++
	if ev.msgs != nil && len(n.freeMsgs) < 4096 {
		for i := range ev.msgs {
			ev.msgs[i] = nil
		}
		n.freeMsgs = append(n.freeMsgs, ev.msgs[:0])
	}
	if len(n.free) < 1<<16 {
		ev.msg = nil
		ev.msgs = nil
		ev.idx = 0
		ev.dst = nil
		ev.fn = nil
		n.free = append(n.free, ev)
	}
}

// allocMsgs pops a recycled batch slice.
func (n *Net) allocMsgs() []types.Message {
	if last := len(n.freeMsgs) - 1; last >= 0 {
		s := n.freeMsgs[last]
		n.freeMsgs = n.freeMsgs[:last]
		return s
	}
	return nil
}

// schedule enqueues ev at absolute time at (ns).
func (n *Net) schedule(at int64, ev *event) *event {
	if at < n.nowNS {
		at = n.nowNS
	}
	n.seq++
	ev.at = at
	ev.seq = n.seq
	n.place(at/quantum, ev)
	return ev
}

// place puts ev into the wheel's slot for bucket index slot, or into the
// overflow heap past the wheel's horizon. A nil slot takes a recycled bucket.
func (n *Net) place(slot int64, ev *event) {
	if slot-n.wheelPos < wheelSlots {
		idx := slot % wheelSlots
		if nb := len(n.freeBufs) - 1; n.wheel[idx] == nil && nb >= 0 {
			n.wheel[idx] = n.freeBufs[nb]
			n.freeBufs = n.freeBufs[:nb]
		}
		n.wheel[idx] = append(n.wheel[idx], ev)
	} else {
		n.overflow.push(ev)
	}
	n.pending++
}

// scheduleMsg enqueues a pooled message event.
func (n *Net) scheduleMsg(at int64, kind uint8, dst *simEndpoint, from types.NodeID, msg types.Message, size int) {
	ev := n.alloc()
	ev.kind = kind
	ev.dst = dst
	ev.from = from
	ev.msg = msg
	ev.size = size
	n.schedule(at, ev)
}

// Run advances virtual time by d, processing all events due in the window.
func (n *Net) Run(d time.Duration) {
	n.RunUntil(time.Duration(n.nowNS) + d)
}

// RunUntil advances virtual time to t, processing all events due before it.
func (n *Net) RunUntil(t time.Duration) {
	deadline := int64(t)
	for n.pending > 0 {
		slot := n.wheelPos % wheelSlots
		bucketEnd := (n.wheelPos + 1) * quantum
		// Drain the slot until no handler schedules anything further into
		// it: an event fired here may enqueue a near-immediate follow-up
		// (self-delivery, zero-delay callbacks) that belongs to this same
		// quantum and must run before the wheel advances.
		for len(n.wheel[slot]) > 0 {
			// The slot is left nil: the next event into it, a wheel turn
			// away or a follow-up in this quantum, takes a recycled bucket
			// then (place).
			bucket := n.wheel[slot]
			n.wheel[slot] = nil
			n.pending -= len(bucket)
			// Events within one quantum run in scheduling (seq) order:
			// deterministic, causally consistent (an event created by
			// another always has a higher seq), and per-link FIFO.
			// Exact sub-quantum timestamp order is deliberately NOT
			// enforced — the quantum is the simulator's stated
			// resolution, and skipping the sort dominates large-run
			// performance.
			deferred := 0
			for _, ev := range bucket {
				if ev.dead {
					n.recycle(ev)
					continue // cancelled
				}
				if ev.at > deadline {
					// Past the window: push back; the loop exits
					// after this bucket since bucketEnd > deadline.
					n.requeue(ev)
					deferred++
					continue
				}
				if ev.at > n.nowNS {
					n.nowNS = ev.at
				}
				n.fire(ev)
			}
			if cap(bucket) <= 1<<17 && len(n.freeBufs) < 8192 {
				n.freeBufs = append(n.freeBufs, bucket[:0])
			}
			if deferred > 0 && deferred == len(n.wheel[slot]) {
				break // everything left is past the deadline
			}
		}
		if bucketEnd > deadline {
			break
		}
		n.wheelPos++
		// Refill this wheel revolution's horizon from the overflow heap.
		horizon := (n.wheelPos + wheelSlots) * quantum
		for n.overflow.len() > 0 && n.overflow.min().at < horizon {
			ev := n.overflow.pop()
			n.pending--
			n.requeue(ev)
		}
	}
	if deadline > n.nowNS {
		n.nowNS = deadline
	}
}

// fire dispatches one event at the current (already advanced) time.
func (n *Net) fire(ev *event) {
	switch ev.kind {
	case evArrival:
		dst := ev.dst
		// Receive-side store-and-forward serialization.
		start := n.nowNS
		if dst.rxFree > start {
			start = dst.rxFree
		}
		done := start + n.txDelay(ev.size)
		dst.rxFree = done
		if done-n.nowNS > quantum {
			ev.kind = evDeliver
			n.schedule(done, ev)
			return
		}
		n.deliverEvent(ev)
	case evDeliver:
		n.deliverEvent(ev)
	case evFlush:
		// dst is the SENDER endpoint; from holds the destination.
		ev.dst.flushArmed(ev.from, n.nowNS)
		n.recycle(ev)
	case evTimer:
		ev.dead = true // fired; Timer.Stop now reports false
		e := ev.dst
		e.charged = 0
		ev.fn()
		start := n.nowNS
		if e.cpuFree > start {
			start = e.cpuFree
		}
		e.cpuFree = start + e.charged
		e.charged = 0
		e.endDrain()
		n.recycle(ev)
	}
}

// deliverEvent runs the handler for a single or batched message event,
// resuming after CPU-busy pauses, and ends the drain after the last message
// it ran and before it pauses. Recycles the event when done.
func (n *Net) deliverEvent(ev *event) {
	dst := ev.dst
	if ev.msgs == nil {
		if !dst.deliver(n.nowNS, ev.from, ev.msg) {
			ev.kind = evDeliver
			n.schedule(dst.cpuFree, ev)
			return
		}
		dst.endDrain()
		n.recycle(ev)
		return
	}
	for ran := false; ev.idx < len(ev.msgs); ran = true {
		if !dst.deliver(n.nowNS, ev.from, ev.msgs[ev.idx]) {
			if ran {
				dst.endDrain()
			}
			ev.kind = evDeliver
			n.schedule(dst.cpuFree, ev)
			return
		}
		ev.idx++
	}
	dst.endDrain()
	n.recycle(ev)
}

// RunUntilIdle processes every pending event (useful for logic tests; do not
// use with recurring timers).
func (n *Net) RunUntilIdle() {
	for n.pending > 0 {
		n.RunUntil(time.Duration((n.wheelPos+wheelSlots)*quantum - 1))
	}
}

// Pending returns the number of queued events.
func (n *Net) Pending() int { return n.pending }

func (n *Net) requeue(ev *event) {
	n.place(max(ev.at/quantum, n.wheelPos), ev)
}

// owl returns the one-way latency from i to j with jitter.
func (n *Net) owl(i, j types.NodeID) int64 {
	base := n.owlNS[n.eps[i].region][n.eps[j].region]
	if n.cfg.JitterPct > 0 {
		f := 1 + (n.rng.Float64()*2-1)*n.cfg.JitterPct
		base = int64(float64(base) * f)
	}
	return base
}

// txDelay is the NIC serialization time for size bytes.
func (n *Net) txDelay(size int) int64 {
	return int64(float64(size) / n.byteRate)
}

// ---------------------------------------------------------------------------

// simEndpoint implements transport.Endpoint and transport.Clock for one
// simulated node.
// outBatch accumulates small messages bound for one destination.
type outBatch struct {
	msgs  []types.Message
	size  int
	armed bool
}

type simEndpoint struct {
	net     *Net
	id      types.NodeID
	region  int
	handler transport.Handler
	drained func()     // the drain hook; nil until an owner installs one
	batches []outBatch // per destination; nil when batching is off

	txFree   int64   // outbound NIC busy-until
	rxFree   int64   // inbound NIC busy-until
	cpuFree  int64   // CPU busy-until
	charged  int64   // CPU charged during the current handler invocation
	linkFree []int64 // per-destination flow busy-until (lazy)

	stats transport.Stats
}

func (e *simEndpoint) Self() types.NodeID { return e.id }

func (e *simEndpoint) SetHandler(h transport.Handler) { e.handler = h }

func (e *simEndpoint) SetDrainHook(fn func()) { e.drained = fn }

func (e *simEndpoint) Stats() transport.Stats { return e.stats }

func (e *simEndpoint) Close() error { return nil }

// Send models the full transmit-propagate-receive pipeline.
func (e *simEndpoint) Send(to types.NodeID, m types.Message) {
	n := e.net
	now := n.nowNS + e.charged // messages emitted mid-handler leave after the CPU work so far
	if to == e.id {
		n.scheduleMsg(now, evDeliver, e, e.id, m, 0)
		return
	}
	size := m.WireSize()
	e.stats.MsgsSent++
	e.stats.BytesSent += uint64(size)
	if k := m.Kind(); int(k) < len(n.totalBytes) {
		n.totalBytes[k] += uint64(size)
		n.totalMsgs[k]++
	}

	if e.batches != nil && size < batchBypass {
		b := &e.batches[to]
		if b.msgs == nil {
			b.msgs = n.allocMsgs()
		}
		b.msgs = append(b.msgs, m)
		b.size += size
		if !b.armed {
			b.armed = true
			ev := n.alloc()
			ev.kind = evFlush
			ev.dst = e
			ev.from = to
			n.schedule(now+int64(n.cfg.BatchWindow), ev)
		} else if b.size >= 4*batchBypass {
			e.flush(to, now)
		}
		return
	}
	// Immediate path. Preserve per-link FIFO: anything batched for this
	// destination must go out first.
	if e.batches != nil {
		e.flush(to, now)
	}
	e.transmit(to, m, nil, size, now)
}

// flush sends the pending batch for destination to (if any) as one frame.
// The armed flag stays set until the scheduled flush event fires (it becomes
// a no-op if the batch was flushed early).
func (e *simEndpoint) flush(to types.NodeID, now int64) {
	b := &e.batches[to]
	if len(b.msgs) == 0 {
		return
	}
	msgs, size := b.msgs, b.size
	b.msgs, b.size = nil, 0
	e.transmit(to, nil, msgs, size, now)
}

// flushArmed is the scheduled flush: emit whatever accumulated and disarm.
func (e *simEndpoint) flushArmed(to types.NodeID, now int64) {
	e.flush(to, now)
	e.batches[to].armed = false
}

// transmit serializes one frame (single message or batch) through the NIC
// and through the per-destination flow (TCP window pacing).
func (e *simEndpoint) transmit(to types.NodeID, m types.Message, msgs []types.Message, size int, now int64) {
	n := e.net
	start := now
	if e.txFree > start {
		start = e.txFree
	}
	dep := start + n.txDelay(size)
	e.txFree = dep
	if flow := n.flowNSPerByte[e.region][n.eps[to].region]; flow > 1/n.byteRate {
		// The flow is slower than the NIC: pace this frame at W/RTT,
		// queueing behind earlier frames on the same flow.
		if e.linkFree == nil {
			e.linkFree = make([]int64, n.cfg.N)
		}
		ls := start
		if e.linkFree[to] > ls {
			ls = e.linkFree[to]
		}
		linkDone := ls + int64(float64(size)*flow)
		if linkDone < dep {
			linkDone = dep
		}
		e.linkFree[to] = linkDone
		dep = linkDone
	}
	arrive := dep + n.owl(e.id, to)
	ev := n.alloc()
	ev.kind = evArrival
	ev.dst = n.eps[to]
	ev.from = e.id
	ev.msg = m
	ev.msgs = msgs
	ev.size = size
	n.schedule(arrive, ev)
}

// deliver runs the handler at the current time, unless the node's CPU is
// still busy (returns false: the caller reschedules at cpuFree).
func (e *simEndpoint) deliver(at int64, from types.NodeID, m types.Message) bool {
	if e.cpuFree-at > quantum {
		return false // still busy computing: process once free
	}
	if e.handler == nil {
		return true
	}
	if from != e.id {
		e.stats.MsgsRecv++
		e.stats.BytesRecv += uint64(m.WireSize())
	}
	e.charged = 0
	e.handler(from, m)
	start := at
	if e.cpuFree > start {
		start = e.cpuFree
	}
	e.cpuFree = start + e.charged
	e.charged = 0
	return true
}

// endDrain calls the drain hook like a handler: its CPU is charged, and its
// sends are stamped after the CPU the drain charged before it.
func (e *simEndpoint) endDrain() {
	if e.drained == nil {
		return
	}
	now := e.net.nowNS
	e.charged = max(e.cpuFree-now, 0)
	e.drained()
	e.cpuFree = now + e.charged
	e.charged = 0
}

func (e *simEndpoint) Multicast(tos []types.NodeID, m types.Message) {
	for _, to := range tos {
		e.Send(to, m)
	}
}

func (e *simEndpoint) Broadcast(m types.Message) {
	for i := 0; i < e.net.cfg.N; i++ {
		e.Send(types.NodeID(i), m)
	}
}

// Now implements transport.Clock.
func (e *simEndpoint) Now() time.Duration { return time.Duration(e.net.nowNS) }

// Charge implements transport.Clock: accumulate modeled CPU time.
func (e *simEndpoint) Charge(d time.Duration) {
	if d > 0 {
		e.charged += int64(d)
	}
}

// After implements transport.Clock. The timer is a pooled event, so an arm
// allocates nothing.
func (e *simEndpoint) After(d time.Duration, fn func()) transport.Timer {
	ev := e.net.alloc()
	ev.kind, ev.dst, ev.fn = evTimer, e, fn
	e.net.schedule(e.net.nowNS+int64(d), ev)
	return transport.MakeTimer(ev, ev.gen)
}

// StopArm implements transport.Rearmable: a cancelled timer stays scheduled,
// dead, until its time comes and it is recycled.
func (ev *event) StopArm(gen uint64) bool {
	if ev.gen != gen || ev.dead {
		return false
	}
	ev.dead = true
	return true
}

// ---------------------------------------------------------------------------
// Overflow heap for events beyond the wheel horizon.

type eventHeap struct{ evs []*event }

func (h *eventHeap) len() int { return len(h.evs) }

func (h *eventHeap) min() *event { return h.evs[0] }

func (h *eventHeap) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *event) {
	h.evs = append(h.evs, ev)
	i := len(h.evs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.evs[i], h.evs[p]) {
			break
		}
		h.evs[i], h.evs[p] = h.evs[p], h.evs[i]
		i = p
	}
}

func (h *eventHeap) pop() *event {
	top := h.evs[0]
	last := len(h.evs) - 1
	h.evs[0] = h.evs[last]
	h.evs = h.evs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.less(h.evs[l], h.evs[small]) {
			small = l
		}
		if r < last && h.less(h.evs[r], h.evs[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.evs[i], h.evs[small] = h.evs[small], h.evs[i]
		i = small
	}
	return top
}
