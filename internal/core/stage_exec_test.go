package core

import (
	"sync"
	"testing"
	"time"

	"clanbft/internal/metrics"
	"clanbft/internal/types"
)

// Unit tests for execStage's spill ring and drain, exercised directly
// (no cluster) so the capacity accounting is observable.

func vertexAt(r types.Round, src types.NodeID) *types.Vertex {
	return &types.Vertex{Round: r, Source: src}
}

// gate blocks Deliver until released, letting a test pile up a spill burst.
type gate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	open     bool
	rounds   []types.Round
	delivers int
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
	g.delivers++
	g.mu.Unlock()
}

func (g *gate) release() {
	g.mu.Lock()
	g.open = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// TestSpillReleasesCapacityAfterDrain is the regression test for the spill
// leak: the old implementation advanced the ring with overflow = overflow[1:],
// which keeps the entire burst-sized backing array reachable for the node's
// lifetime. After a burst spills and fully drains, the stage must retain at
// most spillRetainCap capacity.
func TestSpillReleasesCapacityAfterDrain(t *testing.T) {
	const burst = 5000
	g := newGate()
	e := newExecStage(g.deliver, 1, metrics.New())
	defer e.stop()

	for i := 0; i < burst; i++ {
		e.push(CommittedVertex{Vertex: vertexAt(types.Round(i), 0)})
	}
	e.mu.Lock()
	spilled := e.spillLen()
	grown := cap(e.overflow)
	e.mu.Unlock()
	if spilled < burst-2 {
		t.Fatalf("expected ~%d spilled items behind a blocked queue of 1, got %d", burst, spilled)
	}
	if grown < burst-2 {
		t.Fatalf("spill backing array cap %d, expected >= burst", grown)
	}

	g.release()
	e.flush()

	e.mu.Lock()
	live, retained, head := e.spillLen(), cap(e.overflow), e.spillHead
	e.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d items still spilled after flush", live)
	}
	if retained > spillRetainCap {
		t.Fatalf("drained spill retains cap %d (> %d): burst backing array leaked", retained, spillRetainCap)
	}
	if head != 0 {
		t.Fatalf("spillHead %d after full drain, want 0", head)
	}
	g.mu.Lock()
	n := g.delivers
	g.mu.Unlock()
	if n != burst {
		t.Fatalf("delivered %d of %d", n, burst)
	}
}

// TestSpillPopZeroesSlots: every popped slot must be cleared so delivered
// blocks become collectable even while the ring is partially drained.
func TestSpillPopZeroesSlots(t *testing.T) {
	e := &execStage{overflow: make([]execItem, 0, 8)}
	for i := 0; i < 6; i++ {
		e.overflow = append(e.overflow, execItem{cv: CommittedVertex{Vertex: vertexAt(types.Round(i), 0)}})
	}
	for i := 0; i < 3; i++ {
		it := e.popSpill()
		if it.cv.Vertex.Round != types.Round(i) {
			t.Fatalf("pop %d returned round %d", i, it.cv.Vertex.Round)
		}
	}
	for i := 0; i < e.spillHead; i++ {
		if e.overflow[i].cv.Vertex != nil {
			t.Fatalf("dead slot %d still references its vertex", i)
		}
	}
	if e.spillLen() != 3 {
		t.Fatalf("spillLen %d, want 3", e.spillLen())
	}
}

// TestSpillCompactionSlidesLiveRegion: a long-lived backlog whose dead prefix
// dominates must compact in place rather than growing without bound.
func TestSpillCompactionSlidesLiveRegion(t *testing.T) {
	e := &execStage{}
	total := spillCompactAt*2 + 10
	for i := 0; i < total; i++ {
		e.overflow = append(e.overflow, execItem{cv: CommittedVertex{Vertex: vertexAt(types.Round(i), 0)}})
	}
	// Pop until the dead prefix both passes spillCompactAt and dominates
	// the slice (head*2 >= len) — the point where the live region must
	// slide down.
	pops := total / 2
	for i := 0; i < pops; i++ {
		e.popSpill()
	}
	if e.spillHead != 0 {
		t.Fatalf("spillHead %d after compaction, want 0", e.spillHead)
	}
	if e.spillLen() != total-pops {
		t.Fatalf("spillLen %d after compaction, want %d", e.spillLen(), total-pops)
	}
	// FIFO must survive the slide.
	if it := e.popSpill(); it.cv.Vertex.Round != types.Round(pops) {
		t.Fatalf("post-compaction pop returned round %d, want %d", it.cv.Vertex.Round, pops)
	}
}

// TestBatchDrainPreservesOrder: a spilled burst is delivered one vertex per
// Deliver call, in push order.
func TestBatchDrainPreservesOrder(t *testing.T) {
	const total = 2000
	g := newGate() // holds the first delivery so the rest piles up
	e := newExecStage(g.deliver, 4, metrics.New())
	defer e.stop()

	for i := 0; i < total; i++ {
		e.push(CommittedVertex{Vertex: vertexAt(types.Round(i), 0)})
	}
	g.release()
	e.flush()

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.delivers != total || len(g.rounds) != total {
		t.Fatalf("%d Deliver calls carried %d vertices, want %d of each", g.delivers, len(g.rounds), total)
	}
	for i, r := range g.rounds {
		if r != types.Round(i) {
			t.Fatalf("position %d delivered round %d: the drain broke FIFO", i, r)
		}
	}
}

// TestExecBackpressureSpill: a queue of one in front of a slow Deliver must
// spill (counted by exec.backpressure) without blocking the pushes, and the
// spill must drain in FIFO order — every pushed vertex delivered exactly
// once, in push order, and the queue empty after flush.
func TestExecBackpressureSpill(t *testing.T) {
	const total = 1000
	var got []types.Round // written by deliver; read after flush
	reg := metrics.New()
	e := newExecStage(func(cv CommittedVertex) {
		time.Sleep(20 * time.Microsecond)
		got = append(got, cv.Vertex.Round)
	}, 1, reg)
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
			t.Fatalf("position %d delivered round %d: the spill broke FIFO", i, r)
		}
	}
	s := reg.Snapshot()
	if s.Counter(types.StageExec.Metric("backpressure")) == 0 {
		t.Fatal("a queue of 1 in front of a slow Deliver never spilled")
	}
	if n := s.Counter(types.StageExec.Metric("committed")); n != total {
		t.Fatalf("exec.committed=%d, want %d", n, total)
	}
	if depth := s.Gauge(types.StageExec.Metric("queue_depth")); depth != 0 {
		t.Fatalf("exec.queue_depth=%d after flush", depth)
	}
}
