package core

import (
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/faults"
	"clanbft/internal/simnet"
	"clanbft/internal/store"
	"clanbft/internal/types"
)

// TestCrashRecoveryResumesAndNeverEquivocates crashes a node mid-run,
// restarts it from its persistent store, and checks that (a) the survivor
// set keeps committing throughout, (b) the restarted node catches back up
// and proposes again, and (c) no honest node ever observes two conflicting
// vertices from the recovered party (the write-ahead proposal record).
func TestCrashRecoveryResumesAndNeverEquivocates(t *testing.T) {
	const n = 4
	net := simnet.New(simnet.Config{N: n, Seed: 31, LatencyRTTms: [][]float64{{20}}, JitterPct: -1})
	fnet := faults.NewNet(n, 1, nil)
	keys := crypto.GenerateKeys(n, 17)
	reg := crypto.NewRegistry(keys, true)
	stores := make([]store.Store, n)
	orders := make([][]types.Position, n)

	mkNode := func(i int) *Node {
		id := types.NodeID(i)
		return New(Config{
			Self:   id,
			N:      n,
			Key:    &keys[i],
			Reg:    reg,
			Store:  stores[i],
			Blocks: &testSource{id: id, txCount: 2, txSize: 32},
			Params: Params{RoundTimeout: 700 * time.Millisecond},
			Deliver: func(cv CommittedVertex) {
				orders[i] = append(orders[i], cv.Vertex.Pos())
			},
		}, fnet.Wrap(net.Endpoint(id), net.Clock(id)), net.Clock(id))
	}

	nodes := make([]*Node, n)
	run := func(d time.Duration) {
		net.Run(d)
		for _, nd := range nodes {
			nd.Flush()
		}
	}
	for i := 0; i < n; i++ {
		stores[i] = store.NewMem() // shared across "restarts" of node i
		nodes[i] = mkNode(i)
		nodes[i].Start()
		t.Cleanup(nodes[i].Stop)
	}
	run(3 * time.Second)
	preCrashRound := nodes[3].Round()
	if preCrashRound < 5 {
		t.Fatalf("cluster too slow pre-crash: round %d", preCrashRound)
	}

	// Crash node 3: cut it off and silence its handler. Its store survives.
	fnet.Apply(net.Now(), isolate(n, 3))
	net.Endpoint(3).SetHandler(func(types.NodeID, types.Message) {})
	run(3 * time.Second)
	aliveRound := nodes[0].Round()
	if aliveRound <= preCrashRound+2 {
		t.Fatalf("survivors stalled at round %d after crash", aliveRound)
	}

	// Restart node 3 from its store.
	pre3 := len(orders[3])
	restarted := mkNode(3)
	fnet.Apply(net.Now(), faults.Event{Kind: faults.KindHeal, Name: "isolate"})
	restarted.Start()
	t.Cleanup(restarted.Stop)
	nodes[3] = restarted
	if got := restarted.Round(); got < preCrashRound-1 {
		t.Fatalf("recovered round %d, had reached %d before crash", got, preCrashRound)
	}
	run(5 * time.Second)

	// (b) It catches up and proposes new rounds.
	if restarted.Round() <= aliveRound {
		t.Fatalf("restarted node stuck at round %d (cluster at %d)", restarted.Round(), nodes[0].Round())
	}
	if restarted.Metrics.VerticesProposed == 0 {
		t.Fatal("restarted node never proposed")
	}
	if len(orders[3]) <= pre3 {
		t.Fatal("restarted node never ordered anything new")
	}

	// (a) Survivors agree on one total order throughout.
	min := len(orders[0])
	for i := 1; i < 3; i++ {
		if len(orders[i]) < min {
			min = len(orders[i])
		}
	}
	for i := 1; i < 3; i++ {
		for j := 0; j < min; j++ {
			if orders[i][j] != orders[0][j] {
				t.Fatalf("order divergence at %d between 0 and %d", j, i)
			}
		}
	}
	// (c) No equivocation: node 3's recovered proposals occupy rounds the
	// DAG already accepted exactly once each — the survivors' DAGs would
	// have rejected a conflicting insert (dag.Insert errors), and ordering
	// divergence would have tripped above. Additionally its post-restart
	// rounds must be fresh (no overlap with persisted proposal rounds was
	// re-proposed with different content; verified by the survivors having
	// exactly one vertex per (round, source=3) in their orders).
	seen := map[types.Position]int{}
	for _, p := range orders[0] {
		if p.Source == 3 {
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
	net := simnet.New(simnet.Config{N: n, Seed: 33, LatencyRTTms: [][]float64{{20}}, JitterPct: -1})
	keys := crypto.GenerateKeys(n, 18)
	reg := crypto.NewRegistry(keys, true)
	st := store.NewMem()
	var firstRun, secondRun []types.Position

	build := func(sink *[]types.Position) *Node {
		return New(Config{
			Self: 0, N: n, Key: &keys[0], Reg: reg, Store: st,
			Blocks: &testSource{id: 0, txCount: 1, txSize: 16},
			Params: Params{RoundTimeout: 700 * time.Millisecond},
			Deliver: func(cv CommittedVertex) {
				*sink = append(*sink, cv.Vertex.Pos())
			},
		}, net.Endpoint(0), net.Clock(0))
	}
	node := build(&firstRun)
	for i := 1; i < n; i++ {
		i := i
		nd := New(Config{
			Self: types.NodeID(i), N: n, Key: &keys[i], Reg: reg,
			Blocks: &testSource{id: types.NodeID(i), txCount: 1, txSize: 16},
			Params: Params{RoundTimeout: 700 * time.Millisecond},
		}, net.Endpoint(types.NodeID(i)), net.Clock(types.NodeID(i)))
		nd.Start()
		t.Cleanup(nd.Stop)
	}
	node.Start()
	t.Cleanup(node.Stop)
	net.Run(2 * time.Second)
	node.Flush()
	if len(firstRun) < 8 {
		t.Fatalf("first run ordered only %d", len(firstRun))
	}

	// "Restart" node 0 from the same store while the others keep running.
	net.Endpoint(0).SetHandler(func(types.NodeID, types.Message) {})
	node2 := build(&secondRun)
	node2.Start()
	t.Cleanup(node2.Stop)
	net.Run(2 * time.Second)
	node2.Flush()
	if len(secondRun) < len(firstRun) {
		t.Fatalf("replay shorter than original: %d < %d", len(secondRun), len(firstRun))
	}
	for i := range firstRun {
		if secondRun[i] != firstRun[i] {
			t.Fatalf("replayed order diverges at %d: %v vs %v", i, secondRun[i], firstRun[i])
		}
	}
}
