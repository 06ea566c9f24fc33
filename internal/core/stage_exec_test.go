package core

import (
	"sync"
	"testing"
	"time"

	"clanbft/internal/metrics"
	"clanbft/internal/types"
)

// Unit tests for execStage's queue, drain and stop, exercised directly (no
// cluster).

func vertexAt(r types.Round, src types.NodeID) *types.Vertex {
	return &types.Vertex{Round: r, Source: src}
}

// gate blocks Deliver until released, letting a test pile up a backlog.
type gate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	open   bool
	rounds []types.Round
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) deliver(cv CommittedVertex) {
	g.mu.Lock()
	for !g.open {
		g.cond.Wait()
	}
	g.rounds = append(g.rounds, cv.Vertex.Round)
	g.mu.Unlock()
}

func (g *gate) release() {
	g.mu.Lock()
	g.open = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// TestSpillReleasesCapacityAfterDrain: a burst that piles up behind a slow
// Deliver grows the stage's queue to the burst's size; once it drains, that
// array is released rather than pinned for the node's lifetime.
func TestSpillReleasesCapacityAfterDrain(t *testing.T) {
	const burst = 5000
	g := newGate()
	e := newExecStage(g.deliver, metrics.New())
	defer e.stop()

	for i := 0; i < burst; i++ {
		e.push(CommittedVertex{Vertex: vertexAt(types.Round(i), 0)})
	}
	e.mu.Lock()
	queued, grown := e.queue.Len(), e.queue.Cap()
	e.mu.Unlock()
	if queued < burst-1 {
		t.Fatalf("expected ~%d queued behind a blocked Deliver, got %d", burst, queued)
	}
	if grown < burst-1 {
		t.Fatalf("queue array cap %d, expected >= burst", grown)
	}

	g.release()
	e.flush()

	e.mu.Lock()
	live, retained := e.queue.Len(), e.queue.Cap()
	e.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d items still queued after flush", live)
	}
	if retained != 0 {
		t.Fatalf("drained queue retains cap %d: the burst's array leaked", retained)
	}
	g.mu.Lock()
	n := len(g.rounds)
	g.mu.Unlock()
	if n != burst {
		t.Fatalf("delivered %d of %d", n, burst)
	}
}

// TestBatchDrainPreservesOrder: a backlog is delivered one vertex per Deliver
// call, in push order.
func TestBatchDrainPreservesOrder(t *testing.T) {
	const total = 2000
	g := newGate() // holds the first delivery so the rest piles up
	e := newExecStage(g.deliver, metrics.New())
	defer e.stop()

	for i := 0; i < total; i++ {
		e.push(CommittedVertex{Vertex: vertexAt(types.Round(i), 0)})
	}
	g.release()
	e.flush()

	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.rounds) != total {
		t.Fatalf("%d Deliver calls, want %d", len(g.rounds), total)
	}
	for i, r := range g.rounds {
		if r != types.Round(i) {
			t.Fatalf("position %d delivered round %d: the drain broke FIFO", i, r)
		}
	}
}

// TestExecBackpressureSpill: pushes in front of a slow Deliver must not
// block, and the backlog must drain in FIFO order — every pushed vertex
// delivered exactly once, in push order, and the queue empty after flush.
func TestExecBackpressureSpill(t *testing.T) {
	const total = 1000
	var got []types.Round // written by deliver; read after flush
	reg := metrics.New()
	e := newExecStage(func(cv CommittedVertex) {
		time.Sleep(20 * time.Microsecond)
		got = append(got, cv.Vertex.Round)
	}, reg)
	defer e.stop()
	for i := 0; i < total; i++ {
		e.push(CommittedVertex{Vertex: vertexAt(types.Round(i), 0)})
	}
	e.flush()
	if len(got) != total {
		t.Fatalf("delivered %d of %d", len(got), total)
	}
	for i, r := range got {
		if r != types.Round(i) {
			t.Fatalf("position %d delivered round %d: the queue broke FIFO", i, r)
		}
	}
	s := reg.Snapshot()
	if n := s.Counter(types.StageExec.Metric("committed")); n != total {
		t.Fatalf("exec.committed=%d, want %d", n, total)
	}
	if depth := s.Gauge(types.StageExec.Metric("queue_depth")); depth != 0 {
		t.Fatalf("exec.queue_depth=%d after flush", depth)
	}
}

// TestExecStopAbandonsQueue: stop returns only once the in-flight Deliver
// has, nothing queued behind it is delivered, and flush and push return at
// once afterwards.
func TestExecStopAbandonsQueue(t *testing.T) {
	g := newGate()
	e := newExecStage(g.deliver, metrics.New())
	for i := 0; i <= 100; i++ {
		e.push(CommittedVertex{Vertex: vertexAt(types.Round(i), 0)})
	}
	within := func(what string, fn func()) {
		done := make(chan struct{})
		go func() { fn(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked", what)
		}
	}
	stopped := make(chan struct{})
	for taken := false; !taken; time.Sleep(time.Millisecond) {
		e.mu.Lock()
		taken = e.queue.Len() == 100 // vertex 0 is in Deliver
		e.mu.Unlock()
	}
	go func() { e.stop(); close(stopped) }()
	for halted := false; !halted; time.Sleep(time.Millisecond) {
		e.mu.Lock()
		halted = e.stopped
		e.mu.Unlock()
	}
	select {
	case <-stopped:
		t.Fatal("stop returned while Deliver was still running")
	case <-time.After(20 * time.Millisecond):
	}
	g.release()
	within("stop", func() { <-stopped })
	within("flush after stop", e.flush)
	within("push after stop", func() { e.push(CommittedVertex{Vertex: vertexAt(101, 0)}) })
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.rounds) != 1 || g.rounds[0] != 0 {
		t.Fatalf("delivered rounds %v after stop, want only [0]", g.rounds)
	}
}
