package core

import (
	"testing"
	"time"

	"clanbft/internal/faults"
	"clanbft/internal/types"
)

// TestCrashRecoveryResumesAndNeverEquivocates crashes a node mid-run,
// restarts it from its persistent store, and checks that (a) the survivor
// set keeps committing throughout, (b) the restarted node catches back up
// and proposes again, and (c) no honest node ever observes two conflicting
// vertices from the recovered party (the write-ahead proposal record).
func TestCrashRecoveryResumesAndNeverEquivocates(t *testing.T) {
	const n = 4
	fnet := faults.NewNet(n, 1, nil)
	c := newTCluster(t, n, topt{uniform: true, delta: 10 * time.Millisecond, timeout: 700 * time.Millisecond,
		txCount: 2, txSize: 32, fnet: fnet, store: true}) // a store survives its node's restarts
	c.run(3 * time.Second)
	preCrashRound := c.nodes[3].Round()
	if preCrashRound < 5 {
		t.Fatalf("cluster too slow pre-crash: round %d", preCrashRound)
	}

	// Crash node 3: cut it off and silence its handler. Its store survives.
	fnet.Apply(c.net.Now(), isolate(n, 3))
	c.net.Endpoint(3).SetHandler(func(types.NodeID, types.Message) {})
	c.run(3 * time.Second)
	aliveRound := c.nodes[0].Round()
	if aliveRound <= preCrashRound+2 {
		t.Fatalf("survivors stalled at round %d after crash", aliveRound)
	}

	// Restart node 3 from its store.
	pre3 := len(c.orders[3])
	t.Cleanup(c.nodes[3].Stop)
	restarted := c.build(3)
	fnet.Apply(c.net.Now(), faults.Event{Kind: faults.KindHeal, Name: "isolate"})
	restarted.Start()
	c.nodes[3] = restarted
	if got := restarted.Round(); got < preCrashRound-1 {
		t.Fatalf("recovered round %d, had reached %d before crash", got, preCrashRound)
	}
	c.run(5 * time.Second)

	// (b) It catches up and proposes new rounds.
	if restarted.Round() <= aliveRound {
		t.Fatalf("restarted node stuck at round %d (cluster at %d)", restarted.Round(), c.nodes[0].Round())
	}
	if restarted.MetricsSnapshot().VerticesProposed == 0 {
		t.Fatal("restarted node never proposed")
	}
	if len(c.orders[3]) <= pre3 {
		t.Fatal("restarted node never ordered anything new")
	}

	// (a) Survivors agree on one total order throughout.
	c.checkConsistentOrder(map[types.NodeID]bool{3: true})
	// (c) No equivocation: node 3's recovered proposals occupy rounds the
	// DAG already accepted exactly once each — the survivors' DAGs would
	// have rejected a conflicting insert (dag.Insert errors), and ordering
	// divergence would have tripped above. Additionally its post-restart
	// rounds must be fresh (no overlap with persisted proposal rounds was
	// re-proposed with different content; verified by the survivors having
	// exactly one vertex per (round, source=3) in their orders).
	seen := map[types.Position]int{}
	for _, cv := range c.orders[0] {
		if p := cv.Vertex.Pos(); p.Source == 3 {
			seen[p]++
			if seen[p] > 1 {
				t.Fatalf("vertex %v ordered twice", p)
			}
		}
	}
}

// TestRecoveryReplaysOrderFromScratch documents at-least-once delivery: a
// restarted node re-emits the total order from the beginning, identical to
// its pre-crash prefix.
func TestRecoveryReplaysOrderFromScratch(t *testing.T) {
	const n = 4
	c := newTCluster(t, n, topt{uniform: true, delta: 10 * time.Millisecond, timeout: 700 * time.Millisecond,
		txCount: 1, txSize: 16, store: true})
	c.run(2 * time.Second)
	firstRun := c.orders[0]
	if len(firstRun) < 8 {
		t.Fatalf("first run ordered only %d", len(firstRun))
	}

	// "Restart" node 0 from the same store while the others keep running.
	c.net.Endpoint(0).SetHandler(func(types.NodeID, types.Message) {})
	c.nodes[0].Stop() // nothing more of the first run reaches orders[0]
	c.orders[0] = nil
	c.nodes[0] = c.build(0)
	c.nodes[0].Start()
	c.run(2 * time.Second)
	secondRun := c.orders[0]
	if len(secondRun) < len(firstRun) {
		t.Fatalf("replay shorter than original: %d < %d", len(secondRun), len(firstRun))
	}
	for i := range firstRun {
		if secondRun[i].Vertex.Pos() != firstRun[i].Vertex.Pos() {
			t.Fatalf("replayed order diverges at %d: %v vs %v", i, secondRun[i].Vertex.Pos(), firstRun[i].Vertex.Pos())
		}
	}
}
