package gateway

import (
	"testing"
	"time"

	"clanbft/internal/metrics"
)

// TestOverloadMonitorWindow drives the monitor's sampler by hand: the p95 it
// judges is the last window's alone, an empty window reads as idle, and one
// sample costs two allocations (the histogram's copy and the window) however
// much else the registry holds — it used to copy every instrument and run
// every collector twenty times a second.
func TestOverloadMonitorWindow(t *testing.T) {
	reg := metrics.New()
	wait := reg.Histogram(execWaitHist)
	for i := 0; i < 64; i++ {
		reg.Counter("c" + string(rune('a'+i%26)) + string(rune('a'+i/26))).Inc()
		reg.Histogram("h" + string(rune('a'+i%26)) + string(rune('a'+i/26))).Observe(time.Millisecond)
	}
	collected := 0
	reg.OnSnapshot(func(*metrics.Snapshot) { collected++ })

	m := &overloadMonitor{reg: reg, high: 100 * time.Millisecond}
	m.sample()
	if m.Overloaded() || m.P95() != 0 {
		t.Fatalf("idle node: overloaded=%v p95=%v", m.Overloaded(), m.P95())
	}
	for i := 0; i < 100; i++ {
		wait.Observe(400 * time.Millisecond)
	}
	m.sample()
	if !m.Overloaded() || m.P95() < 200*time.Millisecond {
		t.Fatalf("a window of 400 ms waits: overloaded=%v p95=%v", m.Overloaded(), m.P95())
	}
	for i := 0; i < 100; i++ {
		wait.Observe(time.Millisecond)
	}
	m.sample()
	if m.Overloaded() || m.P95() > 10*time.Millisecond {
		t.Fatalf("the slow window is over: overloaded=%v p95=%v", m.Overloaded(), m.P95())
	}
	m.sample()
	if m.Overloaded() || m.P95() != 0 {
		t.Fatalf("empty window: overloaded=%v p95=%v", m.Overloaded(), m.P95())
	}

	allocs := testing.AllocsPerRun(200, func() {
		wait.Observe(time.Millisecond)
		m.sample()
	})
	if allocs > 2 {
		t.Fatalf("one monitor sample allocates %.1f, want <= 2", allocs)
	}
	if collected != 0 {
		t.Fatalf("sampling one histogram ran the registry's collectors %d times", collected)
	}

	// A registry with no exec stage behind it reads as idle.
	bare := &overloadMonitor{reg: metrics.New(), high: time.Millisecond}
	bare.sample()
	if bare.Overloaded() || bare.P95() != 0 {
		t.Fatal("a registry without the histogram reads as loaded")
	}
}
