package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"clanbft/internal/types"
)

// TestTimerRearm: the clock recycles its timers, so a handle is good for its
// own arm only. A Stop handle kept across a re-arm cannot cancel the new arm,
// a fired and recycled timer fires once per arm, a Stop that comes after the
// expiry but before the callback's turn on the mailbox still cancels it, and
// in steady state an arm allocates its handle and nothing else.
func TestTimerRearm(t *testing.T) {
	net := NewChanNet(1, 0)
	defer net.Close()
	ep := net.Endpoint(0)
	ep.SetHandler(func(types.NodeID, types.Message) {})
	clk := net.Clock(0).(*realClock)
	wait := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	idle := func() int {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		return len(clk.idle)
	}

	// A stale handle: stop the first arm, re-arm the same timer object.
	var a, b atomic.Int32
	first := clk.After(time.Hour, func() { a.Add(1) })
	if !first.Stop() {
		t.Fatal("Stop of a pending arm reported false")
	}
	second := clk.After(20*time.Millisecond, func() { b.Add(1) })
	if first.(*timerArm).t != second.(*timerArm).t {
		t.Fatal("the stopped timer was not re-armed")
	}
	if first.Stop() {
		t.Fatal("a stale handle stopped its successor")
	}
	wait("the second arm", func() bool { return b.Load() == 1 })
	if second.Stop() {
		t.Fatal("Stop after the callback ran reported true")
	}

	// Fired and recycled: each arm fires exactly once.
	wait("the fired timer to go idle", func() bool { return idle() == 1 })
	var c atomic.Int32
	third := clk.After(5*time.Millisecond, func() { c.Add(1) })
	if third.(*timerArm).t != second.(*timerArm).t {
		t.Fatal("the fired timer was not re-armed")
	}
	wait("the third arm", func() bool { return c.Load() == 1 })
	time.Sleep(30 * time.Millisecond)
	if a.Load() != 0 || b.Load() != 1 || c.Load() != 1 {
		t.Fatalf("callbacks ran %d, %d, %d times, want 0, 1, 1", a.Load(), b.Load(), c.Load())
	}

	// Expired but not yet run: the mailbox is busy while the timer expires,
	// and the Stop gets there before the callback's turn.
	wait("the timer to go idle again", func() bool { return idle() == 1 })
	var late atomic.Int32
	release, stopped := make(chan struct{}), make(chan bool)
	ep.(*chanEndpoint).mb.push(task{fn: func() {
		h := clk.After(time.Millisecond, func() { late.Add(1) })
		<-release // the timer expires and queues behind this task
		stopped <- h.Stop()
	}})
	time.Sleep(20 * time.Millisecond)
	close(release)
	if !<-stopped {
		t.Fatal("Stop before the queued callback's turn reported false")
	}
	wait("the cancelled timer to go idle", func() bool { return idle() == 1 })
	if late.Load() != 0 {
		t.Fatal("a callback stopped while queued ran anyway")
	}

	// One allocation per arm: the handle.
	fn := func() {}
	allocs := testing.AllocsPerRun(200, func() { clk.After(time.Hour, fn).Stop() })
	if allocs > 1 && !raceEnabled {
		t.Fatalf("an arm allocates %.1f, want 1 (its handle)", allocs)
	}
}
