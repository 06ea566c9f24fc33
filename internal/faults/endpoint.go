package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clanbft/internal/metrics"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// Net is the shared fault state for one cluster: per-link rules, active
// partitions, the crashed set and the Byzantine parties' mutators. Every
// node's endpoint is wrapped via Wrap; the wrappers consult the Net on each
// outbound message.
//
// All decisions draw from one seeded RNG under a mutex: on the
// single-threaded simulator the draw order is deterministic, making whole
// chaos runs exactly reproducible from the seed.
type Net struct {
	mu         sync.Mutex
	n          int
	rng        *rand.Rand
	trace      *Trace
	rules      map[[2]types.NodeID]*linkRule
	partitions map[string][]int8 // name -> side per node (-1 = unlisted)
	crashed    []bool
	byzantine  [][]Mutator // per node; see SetByzantine

	// tap, when set, observes every message that passed the fault layer
	// (after drop/partition/crash filtering, before duplication). The
	// harness's equivocation tap uses it.
	tap func(from, to types.NodeID, m types.Message)
}

type linkRule struct {
	drop    float64
	dup     float64
	delay   time.Duration
	reorder time.Duration // max extra uniform delay
	match   func(types.Message) bool
}

func (r *linkRule) empty() bool {
	return r.drop == 0 && r.dup == 0 && r.delay == 0 && r.reorder == 0
}

// NewNet creates the fault state for an n-node cluster. trace may be nil.
func NewNet(n int, seed int64, trace *Trace) *Net {
	if trace == nil {
		trace = &Trace{}
	}
	return &Net{
		n:          n,
		rng:        rand.New(rand.NewSource(seed)),
		trace:      trace,
		rules:      map[[2]types.NodeID]*linkRule{},
		partitions: map[string][]int8{},
		crashed:    make([]bool, n),
		byzantine:  make([][]Mutator, n),
	}
}

// Trace returns the net's event trace.
func (f *Net) Trace() *Trace { return f.trace }

// SetTap installs a message observer (see Net.tap). Must be set before
// traffic flows.
func (f *Net) SetTap(tap func(from, to types.NodeID, m types.Message)) {
	f.mu.Lock()
	f.tap = tap
	f.mu.Unlock()
}

// Wrap builds the fault-injecting endpoint for ep. clk supplies the timers
// used to realize delay/reorder faults; it must belong to the same node.
func (f *Net) Wrap(ep transport.Endpoint, clk transport.Clock) *Endpoint {
	return &Endpoint{inner: ep, net: f, clk: clk}
}

// Crashed reports whether id is currently marked crashed.
func (f *Net) Crashed(id types.NodeID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed[id]
}

// SetCrashed marks or unmarks id as crashed. While crashed, all of id's
// inbound and outbound traffic is dropped (and counted as dropped at the
// sender).
func (f *Net) SetCrashed(id types.NodeID, down bool) {
	f.mu.Lock()
	f.crashed[id] = down
	f.mu.Unlock()
}

// Apply installs one event's link/partition/crash state immediately and
// records it in the trace at time `at`. Crash/restart events only flip the
// crashed mark — tearing down and rebuilding the engine is the driver's
// job (see Drive).
func (f *Net) Apply(at time.Duration, ev Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch ev.Kind {
	case KindDrop, KindDup, KindDelay, KindReorder:
		for _, link := range f.expand(ev.From, ev.To) {
			r := f.rules[link]
			if r == nil {
				r = &linkRule{}
				f.rules[link] = r
			}
			switch ev.Kind {
			case KindDrop:
				r.drop = ev.P
			case KindDup:
				r.dup = ev.P
			case KindDelay:
				r.delay = ev.Delay
			case KindReorder:
				r.reorder = ev.Delay
			}
			r.match = ev.Match
			if r.empty() {
				delete(f.rules, link)
			}
		}
		f.trace.Logf(at, "%s link %s->%s p=%.3f delay=%s",
			ev.Kind, linkName(ev.From), linkName(ev.To), ev.P, ev.Delay)
	case KindPartition:
		side := make([]int8, f.n)
		for i := range side {
			side[i] = -1
		}
		for gi, group := range ev.Groups {
			for _, id := range group {
				side[id] = int8(gi)
			}
		}
		f.partitions[ev.Name] = side
		f.trace.Logf(at, "partition %q groups=%v", ev.Name, ev.Groups)
	case KindHeal:
		if ev.Name == "" {
			f.rules = map[[2]types.NodeID]*linkRule{}
			f.partitions = map[string][]int8{}
			f.trace.Logf(at, "heal all")
		} else {
			delete(f.partitions, ev.Name)
			f.trace.Logf(at, "heal partition %q", ev.Name)
		}
	case KindCrash:
		f.crashed[ev.Node] = true
		f.trace.Logf(at, "crash node %d", ev.Node)
	case KindRestart:
		f.crashed[ev.Node] = false
		f.trace.Logf(at, "restart node %d torn=%d arg=%d", ev.Node, ev.Torn, ev.Arg)
	}
}

// expand resolves a possibly-wildcarded link selector to concrete pairs.
func (f *Net) expand(from, to types.NodeID) [][2]types.NodeID {
	var froms, tos []types.NodeID
	if from == All {
		for i := 0; i < f.n; i++ {
			froms = append(froms, types.NodeID(i))
		}
	} else {
		froms = []types.NodeID{from}
	}
	if to == All {
		for i := 0; i < f.n; i++ {
			tos = append(tos, types.NodeID(i))
		}
	} else {
		tos = []types.NodeID{to}
	}
	var out [][2]types.NodeID
	for _, a := range froms {
		for _, b := range tos {
			if a != b {
				out = append(out, [2]types.NodeID{a, b})
			}
		}
	}
	return out
}

func linkName(id types.NodeID) string {
	if id == All {
		return "*"
	}
	return fmt.Sprintf("%d", id)
}

// verdict is the fate of one outbound message.
type verdict struct {
	drop  bool
	dup   bool
	delay time.Duration
}

// judge decides one message's fate. RNG draws happen only for links with a
// probabilistic rule installed, keeping the stream stable across schedule
// variations elsewhere.
func (f *Net) judge(from, to types.NodeID, m types.Message) verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed[from] || f.crashed[to] {
		return verdict{drop: true}
	}
	for _, side := range f.partitions {
		if side[from] >= 0 && side[to] >= 0 && side[from] != side[to] {
			return verdict{drop: true}
		}
	}
	r := f.rules[[2]types.NodeID{from, to}]
	if r == nil || (r.match != nil && !r.match(m)) {
		return verdict{}
	}
	var v verdict
	if r.drop > 0 && f.rng.Float64() < r.drop {
		return verdict{drop: true}
	}
	if r.dup > 0 && f.rng.Float64() < r.dup {
		v.dup = true
	}
	v.delay = r.delay
	if r.reorder > 0 {
		v.delay += time.Duration(f.rng.Int63n(int64(r.reorder) + 1))
	}
	return v
}

// dropInbound reports whether a delivery to `to` must be suppressed (the
// receiver is crashed). The sender-side judge already covers live senders;
// this guards messages already in flight when the crash landed.
func (f *Net) dropInbound(to types.NodeID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed[to]
}

// ---------------------------------------------------------------------------
// Endpoint wrapper.

// Endpoint wraps a transport.Endpoint with the Net's fault rules. Outbound
// messages are mutated and judged per recipient (Multicast/Broadcast fan out
// through Send); inbound delivery is suppressed while the node is crashed.
// Dropped messages are counted in Stats().MsgsDropped so accounting stays exact
// under partitions — a peer endlessly retrying a dead node shows up as
// drops, not sends.
type Endpoint struct {
	inner transport.Endpoint
	net   *Net
	clk   transport.Clock

	dropped atomic.Uint64
	duped   atomic.Uint64
	delayed atomic.Uint64
}

// FaultStats are the wrapper's own counters (also folded into Stats()).
type FaultStats struct {
	Dropped    uint64 // messages suppressed (link drop, partition, crash)
	Duplicated uint64 // extra copies injected
	Delayed    uint64 // messages deferred by delay/reorder rules
}

// FaultStats returns the wrapper's fault counters.
func (e *Endpoint) FaultStats() FaultStats {
	return FaultStats{
		Dropped:    e.dropped.Load(),
		Duplicated: e.duped.Load(),
		Delayed:    e.delayed.Load(),
	}
}

// RegisterMetrics folds the wrapper's fault counters into reg's snapshots
// under the `faults.*` namespace — the compatibility shim that keeps
// FaultStats the source of truth while the unified pipeline snapshot is the
// single point of consumption.
func (e *Endpoint) RegisterMetrics(reg *metrics.Registry) {
	reg.OnSnapshot(func(s *metrics.Snapshot) {
		fs := e.FaultStats()
		s.SetCounter("faults.dropped", fs.Dropped)
		s.SetCounter("faults.duplicated", fs.Duplicated)
		s.SetCounter("faults.delayed", fs.Delayed)
	})
}

// Self returns the wrapped endpoint's ID.
func (e *Endpoint) Self() types.NodeID { return e.inner.Self() }

// Send runs m through the node's Byzantine mutators, if any, then judges each
// resulting message against the fault state and forwards, drops, delays, or
// duplicates it. Self-sends bypass link faults (a node always reaches itself;
// crashes silence it via the handler gate instead).
func (e *Endpoint) Send(to types.NodeID, m types.Message) {
	self := e.inner.Self()
	if out, ok := e.net.mutate(self, to, m); ok {
		for _, o := range out {
			e.send(self, o.To, o.Msg)
		}
		return
	}
	e.send(self, to, m)
}

func (e *Endpoint) send(self, to types.NodeID, m types.Message) {
	if to == self {
		e.inner.Send(to, m)
		return
	}
	v := e.net.judge(self, to, m)
	if v.drop {
		e.dropped.Add(1)
		return
	}
	if tap := e.net.tap; tap != nil {
		tap(self, to, m)
	}
	n := 1
	if v.dup {
		n = 2
		e.duped.Add(1)
	}
	for i := 0; i < n; i++ {
		if v.delay > 0 {
			e.delayed.Add(1)
			e.clk.After(v.delay, func() { e.inner.Send(to, m) })
		} else {
			e.inner.Send(to, m)
		}
	}
}

// Multicast applies fault judgement per recipient.
func (e *Endpoint) Multicast(tos []types.NodeID, m types.Message) {
	for _, to := range tos {
		e.Send(to, m)
	}
}

// Broadcast applies fault judgement per recipient.
func (e *Endpoint) Broadcast(m types.Message) {
	for i := 0; i < e.net.n; i++ {
		e.Send(types.NodeID(i), m)
	}
}

// SetHandler installs h behind a crash gate: inbound messages (including
// ones already in flight when the crash landed) are dropped while the node
// is marked crashed. Restarted engines call SetHandler again, replacing the
// previous incarnation's handler.
func (e *Endpoint) SetHandler(h transport.Handler) {
	self := e.inner.Self()
	e.inner.SetHandler(func(from types.NodeID, m types.Message) {
		if from != self && e.net.dropInbound(self) {
			return
		}
		h(from, m)
	})
}

// SetDrainHook installs fn on the wrapped endpoint: the wrapper adds no
// queue of its own between the mailbox and the handler.
func (e *Endpoint) SetDrainHook(fn func()) { e.inner.SetDrainHook(fn) }

// Stats folds the wrapper's drops into the inner endpoint's counters.
func (e *Endpoint) Stats() transport.Stats {
	s := e.inner.Stats()
	s.MsgsDropped += e.dropped.Load()
	return s
}

// Close closes the wrapped endpoint.
func (e *Endpoint) Close() error { return e.inner.Close() }

// ---------------------------------------------------------------------------
// Schedule driver.

// Hooks are the driver's callbacks into the node lifecycle. Either may be
// nil when the schedule has no crash/restart events.
type Hooks struct {
	// Crash tears the engine down (stop timers, close the store). The
	// node's crashed mark is already set when it runs.
	Crash func(id types.NodeID)
	// Restart rebuilds the node from persistent-store recovery. It runs
	// after the crashed mark is cleared, so the recovering engine's
	// traffic flows. The event carries the scripted WAL-tail damage.
	Restart func(id types.NodeID, ev Event)
}

// Drive arms every event of the schedule on clk. Callbacks run serialized
// in clk's owner context — under the simulator, on the single simulation
// goroutine, which keeps the whole run deterministic. Events with the same
// At fire in schedule order.
func Drive(sched Schedule, clk transport.Clock, f *Net, hooks Hooks) {
	events := make([]Event, len(sched.Events))
	copy(events, sched.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	now := clk.Now()
	for _, ev := range events {
		ev := ev
		d := ev.At - now
		if d < 0 {
			d = 0
		}
		clk.After(d, func() {
			at := clk.Now()
			f.Apply(at, ev)
			switch ev.Kind {
			case KindCrash:
				if hooks.Crash != nil {
					hooks.Crash(ev.Node)
				}
			case KindRestart:
				if hooks.Restart != nil {
					hooks.Restart(ev.Node, ev)
				}
			}
		})
	}
}
