// Package metrics is the unified observability spine for the staged commit
// pipeline. One Registry per node collects counters, gauges, and latency
// histograms from every layer — the four pipeline stages in internal/core
// (intake, rbc, order, exec), the transport endpoints, the store, and the
// fault layer — and renders them as one consistent Snapshot consumed by the
// harness, cmd/bench, and the chaos suite.
//
// Naming scheme: `<component>.<metric>`, where component is a pipeline stage
// (`intake`, `rbc`, `order`, `exec`) or a subsystem (`transport`, `store`,
// `faults`). Conventional metric suffixes:
//
//	*.queue_depth   gauge      items waiting at the stage boundary
//	*.latency       histogram  time spent in (or waiting for) the stage
//	*.msgs, *.bytes counter    cumulative throughput
//
// All primitives are lock-free on the write path (atomics only), so stages
// running on different goroutines — the serialized handler, the verify pool,
// the execution stage — can record without contending. Legacy Stats structs
// (transport.Stats, store.DiskStats, faults.FaultStats) remain as thin
// compatibility views; adapters register OnSnapshot collectors that fold them
// into the registry at snapshot time, so the Snapshot is the single point of
// consumption.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed level (queue depths, occupancy).
type Gauge struct{ v atomic.Int64 }

// Set stores the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by delta (use negative deltas to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// numBuckets covers 1µs .. ~9min in powers of two, plus an overflow bucket.
const numBuckets = 30

// bucketBound returns bucket i's inclusive upper bound.
func bucketBound(i int) time.Duration {
	if i >= numBuckets-1 {
		return time.Duration(1<<63 - 1)
	}
	return time.Microsecond << i
}

// bucketOf maps a duration to its bucket: the smallest i with d <= 1µs<<i.
func bucketOf(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	i := bits.Len64(uint64((d - 1) / time.Microsecond))
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// Histogram records a latency distribution in exponential buckets. Observe is
// lock-free; Snapshot folds the buckets into quantile estimates (each
// quantile reports its bucket's upper bound, so estimates are conservative
// within a factor of two).
type Histogram struct {
	count   atomic.Uint64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	h.buckets[bucketOf(d)].Add(1)
	for {
		cur := h.maxNs.Load()
		if int64(d) <= cur || h.maxNs.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a Histogram, mergeable across
// nodes.
type HistSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
	Buckets []uint64 // parallel to bucketBound(i)
}

// Mean returns the average observation (0 when empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1); 0 when empty. The
// q-quantile's bucket is found by rank, then the estimate interpolates
// linearly by rank position between the bucket's bounds — the power-of-two
// buckets alone would quantize every estimate to a factor of two, too
// coarse for the commit-latency gates, while interpolation tracks shifts
// well inside one bucket (assuming observations spread evenly across it,
// the usual histogram-interpolation premise).
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		if cum+c >= rank && c > 0 {
			lo := time.Duration(0)
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			hi := bucketBound(i)
			if hi > s.Max && s.Max > lo {
				hi = s.Max // tighten the overflow / last bucket
			}
			frac := float64(rank-cum) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return s.Max
}

// Since returns the distribution of observations recorded between prev and
// s (both snapshots of the same histogram, prev taken earlier): bucket-wise
// and count/sum differences. Periodic samplers use it to compute windowed
// quantiles — e.g. the gateway's overload monitor reads the p95 of
// exec.queue_wait over the last sampling period, not over the node's whole
// lifetime. Max cannot be differenced and reports the cumulative maximum.
func (s HistSnapshot) Since(prev HistSnapshot) HistSnapshot {
	out := HistSnapshot{Max: s.Max, Buckets: make([]uint64, len(s.Buckets))}
	if s.Count >= prev.Count {
		out.Count = s.Count - prev.Count
	}
	if s.Sum >= prev.Sum {
		out.Sum = s.Sum - prev.Sum
	}
	for i := range s.Buckets {
		b := s.Buckets[i]
		if i < len(prev.Buckets) && prev.Buckets[i] <= b {
			b -= prev.Buckets[i]
		}
		out.Buckets[i] = b
	}
	return out
}

// merge folds other into s.
func (s *HistSnapshot) merge(other HistSnapshot) {
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
	if s.Buckets == nil {
		s.Buckets = make([]uint64, numBuckets)
	}
	for i, c := range other.Buckets {
		if i < len(s.Buckets) {
			s.Buckets[i] += c
		}
	}
}

// snapshot copies the histogram's current state.
func (h *Histogram) snapshot() HistSnapshot {
	hs := HistSnapshot{
		Count:   h.count.Load(),
		Sum:     time.Duration(h.sumNs.Load()),
		Max:     time.Duration(h.maxNs.Load()),
		Buckets: make([]uint64, numBuckets),
	}
	for i := range h.buckets {
		hs.Buckets[i] = h.buckets[i].Load()
	}
	return hs
}

// Snapshot is a consistent copy of a registry's instruments. Counters and
// gauges are plain values; collectors may add further entries via the Set*
// methods.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters"`
	Gauges   map[string]int64        `json:"gauges"`
	Hists    map[string]HistSnapshot `json:"hists"`
}

// NewSnapshot returns an empty snapshot (all maps allocated).
func NewSnapshot() Snapshot {
	return Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistSnapshot{},
	}
}

// SetCounter records a counter value (collector use).
func (s *Snapshot) SetCounter(name string, v uint64) { s.Counters[name] = v }

// SetGauge records a gauge level (collector use).
func (s *Snapshot) SetGauge(name string, v int64) { s.Gauges[name] = v }

// Counter returns a counter's value (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge's level (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Hist returns a histogram snapshot (zero value when absent).
func (s Snapshot) Hist(name string) HistSnapshot { return s.Hists[name] }

// Merge returns the element-wise aggregate of snapshots: counters and gauges
// sum (a summed queue-depth gauge reads as cluster-wide backlog), histograms
// merge bucket-wise. Use it to fold per-node registries into one
// cluster-level view.
func Merge(snaps ...Snapshot) Snapshot {
	out := NewSnapshot()
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		for k, h := range s.Hists {
			m := out.Hists[k]
			m.merge(h)
			out.Hists[k] = m
		}
	}
	return out
}

// Fprint writes the snapshot grouped by component prefix, one instrument per
// line, in deterministic order.
func (s Snapshot) Fprint(w io.Writer) {
	type line struct{ name, text string }
	var lines []line
	for k, v := range s.Counters {
		lines = append(lines, line{k, fmt.Sprintf("%-32s %d", k, v)})
	}
	for k, v := range s.Gauges {
		lines = append(lines, line{k, fmt.Sprintf("%-32s %d (gauge)", k, v)})
	}
	for k, h := range s.Hists {
		lines = append(lines, line{k, fmt.Sprintf("%-32s n=%d mean=%v p50=%v p95=%v max=%v",
			k, h.Count, h.Mean().Round(time.Microsecond), h.Quantile(0.50).Round(time.Microsecond),
			h.Quantile(0.95).Round(time.Microsecond), h.Max.Round(time.Microsecond))})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	prevGroup := ""
	for _, l := range lines {
		group, _, _ := strings.Cut(l.name, ".")
		if group != prevGroup {
			fmt.Fprintf(w, "  [%s]\n", group)
			prevGroup = group
		}
		fmt.Fprintf(w, "    %s\n", l.text)
	}
}

// String renders the snapshot as Fprint would.
func (s Snapshot) String() string {
	var b strings.Builder
	s.Fprint(&b)
	return b.String()
}

// Registry is one node's instrument namespace. Instrument lookups
// (Counter/Gauge/Histogram) are get-or-create and safe for concurrent use;
// the returned pointers are stable, so hot paths resolve once and record
// through the pointer.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(*Snapshot)
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// OnSnapshot registers a collector invoked on every Snapshot call, after the
// registry's own instruments are copied. Collectors adapt legacy Stats
// structs (transport, store, faults) into the unified view without those
// layers owning registry instruments.
func (r *Registry) OnSnapshot(fn func(*Snapshot)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// HistSnapshot returns a snapshot of the one named histogram, the zero value
// when there is none. It is for a poller that watches a single distribution:
// Snapshot copies every instrument and runs every collector.
func (r *Registry) HistSnapshot(name string) HistSnapshot {
	r.mu.Lock()
	h := r.hists[name]
	r.mu.Unlock()
	if h == nil {
		return HistSnapshot{}
	}
	return h.snapshot()
}

// Snapshot copies every instrument and runs the registered collectors.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	// Sized up front — the registered names plus room for what collectors add
	// — so a poller (the gateway refreshes its admission view from a snapshot)
	// does not pay for the maps growing step by step on every call.
	const collectorKeys = 24
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)+collectorKeys),
		Gauges:   make(map[string]int64, len(r.gauges)+collectorKeys),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Load()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Load()
	}
	for k, h := range r.hists {
		s.Hists[k] = h.snapshot()
	}
	collectors := append([]func(*Snapshot){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn(&s)
	}
	return s
}
