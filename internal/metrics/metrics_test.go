package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("x.msgs")
	c.Inc()
	c.Add(4)
	if got := r.Counter("x.msgs").Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("x.queue_depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{24 * time.Hour, numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
		if b := bucketBound(bucketOf(c.d)); b < c.d {
			t.Errorf("bound %v below observation %v", b, c.d)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("stage.latency")
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	s := r.Snapshot().Hist("stage.latency")
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if p50 := s.Quantile(0.5); p50 > time.Millisecond {
		t.Fatalf("p50 = %v, want <= bucket bound of 100µs region", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 10*time.Millisecond {
		t.Fatalf("p99 = %v, want in the 50ms region", p99)
	}
	if s.Max != 50*time.Millisecond {
		t.Fatalf("max = %v", s.Max)
	}
	if m := s.Mean(); m < 100*time.Microsecond || m > 10*time.Millisecond {
		t.Fatalf("mean = %v out of range", m)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	c := r.Counter("c")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counter("c") != 8000 || s.Hist("h").Count != 8000 {
		t.Fatalf("lost updates: %v / %v", s.Counter("c"), s.Hist("h").Count)
	}
}

func TestMergeAndCollectors(t *testing.T) {
	a, b := New(), New()
	a.Counter("exec.committed").Add(3)
	b.Counter("exec.committed").Add(4)
	a.Gauge("exec.queue_depth").Set(2)
	b.Gauge("exec.queue_depth").Set(5)
	a.Histogram("exec.latency").Observe(time.Millisecond)
	b.Histogram("exec.latency").Observe(3 * time.Millisecond)
	b.OnSnapshot(func(s *Snapshot) {
		s.SetCounter("transport.msgs_sent", 42)
		s.SetGauge("intake.queue_depth", 1)
	})
	m := Merge(a.Snapshot(), b.Snapshot())
	if m.Counter("exec.committed") != 7 {
		t.Fatalf("merged counter = %d", m.Counter("exec.committed"))
	}
	if m.Gauge("exec.queue_depth") != 7 {
		t.Fatalf("merged gauge = %d", m.Gauge("exec.queue_depth"))
	}
	if h := m.Hist("exec.latency"); h.Count != 2 || h.Max != 3*time.Millisecond {
		t.Fatalf("merged hist = %+v", h)
	}
	if m.Counter("transport.msgs_sent") != 42 || m.Gauge("intake.queue_depth") != 1 {
		t.Fatal("collector output missing from merge")
	}
	out := m.String()
	for _, want := range []string{"[exec]", "[transport]", "exec.latency", "p95="} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted snapshot missing %q:\n%s", want, out)
		}
	}
}

// TestHistSnapshotOfOne: the one-histogram snapshot equals that histogram's
// entry in the full one, runs no collector, and reports a name the registry
// does not hold as empty without creating it.
func TestHistSnapshotOfOne(t *testing.T) {
	r := New()
	h := r.Histogram("exec.queue_wait")
	for i := 1; i <= 50; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	ran := 0
	r.OnSnapshot(func(*Snapshot) { ran++ })
	one := r.HistSnapshot("exec.queue_wait")
	if ran != 0 {
		t.Fatal("a one-histogram snapshot ran the collectors")
	}
	full := r.Snapshot().Hist("exec.queue_wait")
	if one.Count != full.Count || one.Sum != full.Sum || one.Max != full.Max || one.Quantile(0.95) != full.Quantile(0.95) {
		t.Fatalf("one-histogram snapshot %+v differs from the full snapshot's %+v", one, full)
	}
	if got := r.HistSnapshot("no.such"); got.Count != 0 || got.Buckets != nil {
		t.Fatalf("absent histogram snapshots as %+v", got)
	}
	if _, ok := r.Snapshot().Hists["no.such"]; ok {
		t.Fatal("asking for an absent histogram created it")
	}
}
