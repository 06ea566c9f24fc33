package clanbft_test

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"clanbft"
	"clanbft/internal/harness"
)

// ExampleNewCluster shows the minimal lifecycle: build a cluster, observe
// the total order, submit a transaction, and wait for it to commit.
func ExampleNewCluster() {
	cluster, err := clanbft.NewCluster(clanbft.Options{N: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer cluster.Stop()

	var mu sync.Mutex
	done := make(chan struct{})
	closed := false
	cluster.Node(0).OnCommit(func(c clanbft.Commit) {
		if c.Block == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, tx := range c.Block.Txs {
			if string(tx) == "pay alice 10" && !closed {
				closed = true
				close(done)
			}
		}
	})
	cluster.Start()
	cluster.Submit([]byte("pay alice 10"))

	select {
	case <-done:
		fmt.Println("committed")
	case <-time.After(30 * time.Second):
		fmt.Println("timeout")
	}
	// Output: committed
}

// ExamplePlanClanSize reproduces the paper's committee sizing: how many of
// 500 parties must a clan contain to keep an honest majority except with
// probability 1e-9?
func ExamplePlanClanSize() {
	fmt.Println(clanbft.PlanClanSize(500, 1e-9))
	// Output: 182
}

// Example_kvstore shows the paper's agreement/execution separation (§1):
// consensus runs across a 10-party tribe, but only the 6-member clan stores
// payloads and executes transactions. The client accepts each result once
// f_c+1 = 3 executors return matching signed responses, so at least one
// honest executor stands behind every answer.
func Example_kvstore() {
	cluster, err := clanbft.NewCluster(clanbft.Options{N: 10, Mode: clanbft.ModeSingleClan, ClanSize: 6, Seed: 7})
	if err != nil {
		panic(err)
	}
	defer cluster.Stop()
	clan := cluster.Clans()[0]
	fmt.Printf("clan %v, f_c = %d\n", clan, cluster.ClanFaultBound(0))

	// Each clan member executes the committed order on its execution
	// goroutine; its signed responses go to the client's collector.
	var mu sync.Mutex
	collector := cluster.NewCollector(0)
	for _, id := range clan {
		ex := cluster.NewExecutor(int(id))
		ex.Emit = func(r clanbft.Response) {
			mu.Lock()
			collector.Add(r)
			mu.Unlock()
		}
		cluster.Node(int(id)).OnCommit(ex.Apply)
	}
	cluster.Start()

	ops := []struct {
		tx   clanbft.Tx
		desc string
	}{
		{clanbft.Tx{Op: clanbft.OpSet, Key: []byte("alice"), Value: []byte("100")}, "SET alice=100"},
		{clanbft.Tx{Op: clanbft.OpSet, Key: []byte("bob"), Value: []byte("50")}, "SET bob=50"},
		{clanbft.Tx{Op: clanbft.OpGet, Key: []byte("alice")}, "GET alice"},
		{clanbft.Tx{Op: clanbft.OpDel, Key: []byte("bob")}, "DEL bob"},
		{clanbft.Tx{Op: clanbft.OpGet, Key: []byte("bob")}, "GET bob"},
	}
	// One proposer keeps them in submission order in the total order.
	var ids []clanbft.TxID
	for _, op := range ops {
		raw := clanbft.EncodeTx(op.tx)
		ids = append(ids, clanbft.TxIDOf(raw))
		cluster.Node(int(clan[0])).Submit(raw)
	}
	results := make([][]byte, len(ops))
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		mu.Lock()
		done := 0
		for i, id := range ids {
			if res, ok := collector.Result(id); ok {
				results[i] = res
				done++
			}
		}
		mu.Unlock()
		if done == len(ids) {
			break
		}
	}
	for i, op := range ops {
		fmt.Printf("%-13s -> %q\n", op.desc, results[i])
	}
	// Output:
	// clan [0 1 2 3 4 9], f_c = 2
	// SET alice=100 -> "OK"
	// SET bob=50    -> "OK"
	// GET alice     -> "100"
	// DEL bob       -> "OK"
	// GET bob       -> ""
}

// Example_sharedSequencer shows multi-clan mode as a shared sequencer (§6.1):
// a 12-party tribe split into two clans, each serving one rollup. Every
// transaction lands in one global order, yet each clan stores and executes
// only its own rollup's payloads.
func Example_sharedSequencer() {
	cluster, err := clanbft.NewCluster(clanbft.Options{N: 12, Mode: clanbft.ModeMultiClan, NumClans: 2, Seed: 11})
	if err != nil {
		panic(err)
	}
	defer cluster.Stop()
	clans := cluster.Clans()
	apps := []string{"rollup-A", "rollup-B"}
	fmt.Printf("clan 0 %v serves %s, clan 1 %v serves %s\n", clans[0], apps[0], clans[1], apps[1])

	// One member of each clan records the global sequence of block-carrying
	// vertices and which rollups' payloads it holds.
	var mu sync.Mutex
	seqs := make([][]clanbft.Commit, 2)
	held := []map[string]bool{{}, {}}
	for ci, clan := range clans {
		cluster.Node(int(clan[0])).OnCommit(func(c clanbft.Commit) {
			if c.Vertex.BlockDigest.IsZero() {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			seqs[ci] = append(seqs[ci], c)
			if c.Block != nil {
				for _, tx := range c.Block.Txs {
					held[ci][string(tx[:8])] = true
				}
			}
		})
	}
	cluster.Start()
	for i := 0; i < 12; i++ {
		for ci, app := range apps {
			cluster.Node(int(clans[ci][i%len(clans[ci])])).Submit([]byte(fmt.Sprintf("%s tx %03d", app, i)))
		}
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		mu.Lock()
		enough := len(seqs[0]) >= 12 && len(seqs[1]) >= 12 && len(held[0]) > 0 && len(held[1]) > 0
		mu.Unlock()
		if enough {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	agree := true
	for i := 0; i < min(len(seqs[0]), len(seqs[1])); i++ {
		agree = agree && seqs[0][i].Vertex.Pos() == seqs[1][i].Vertex.Pos()
	}
	fmt.Println("one global sequence:", agree)
	for ci := range clans {
		var rollups []string
		for app := range held[ci] {
			rollups = append(rollups, app)
		}
		slices.Sort(rollups)
		fmt.Printf("clan %d holds payloads of %v\n", ci, rollups)
	}
	// Output:
	// clan 0 [0 2 3 4 8 10] serves rollup-A, clan 1 [1 5 6 7 9 11] serves rollup-B
	// one global sequence: true
	// clan 0 holds payloads of [rollup-A]
	// clan 1 holds payloads of [rollup-B]
}

// Example_geosim runs a miniature of the paper's geo-distributed evaluation
// on the deterministic simulator: 20 parties across the five regions of
// Table 1, Sailfish against single-clan Sailfish at 1000 transactions a
// proposal. The clan's blocks travel to 13 of the 20 parties, so each
// committed transaction costs fewer bytes on the wire (§5).
func Example_geosim() {
	bytesPerTx := map[clanbft.Mode]float64{}
	for _, mode := range []clanbft.Mode{clanbft.ModeSailfish, clanbft.ModeSingleClan} {
		r := harness.Run(harness.Config{Mode: mode, N: 20, ClanSize: 13, TxPerProposal: 1000,
			Warmup: 2 * time.Second, Measure: 4 * time.Second, Seed: 1})
		bytesPerTx[mode] = r.BytesPerSec / r.TPS
	}
	fmt.Println("single-clan sends fewer bytes per committed transaction:",
		bytesPerTx[clanbft.ModeSingleClan] < bytesPerTx[clanbft.ModeSailfish])
	// Output: single-clan sends fewer bytes per committed transaction: true
}

// Example_recovery crashes one node of a 4-node TCP cluster and restarts it
// from its write-ahead store: it recovers to the round it crashed in, so it
// never proposes twice in a round, and catches up with the survivors, which
// kept ordering while it was down.
func Example_recovery() {
	const n = 4
	dir, err := os.MkdirTemp("", "clanbft-recovery")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	base := clanbft.Options{N: n, Seed: 7, Params: clanbft.Params{RoundTimeout: 200 * time.Millisecond}}
	start := func(id clanbft.NodeID, book map[clanbft.NodeID]string) *clanbft.TCPNode {
		opts := base
		opts.StoreDir = fmt.Sprintf("%s/node%d", dir, id)
		nd, err := clanbft.NewTCPNode(clanbft.TCPNodeOptions{Self: id, Addrs: book, Options: opts})
		if err != nil {
			panic(err)
		}
		return nd
	}
	// Bind every node to a free port, then give each the real addresses.
	book := map[clanbft.NodeID]string{}
	for i := 0; i < n; i++ {
		book[clanbft.NodeID(i)] = "127.0.0.1:0"
	}
	nodes := make([]*clanbft.TCPNode, n)
	for i := range nodes {
		nodes[i] = start(clanbft.NodeID(i), book)
	}
	for i := range nodes {
		book[clanbft.NodeID(i)] = nodes[i].Addr()
	}
	for _, nd := range nodes {
		for id, addr := range book {
			nd.SetPeerAddr(id, addr)
		}
	}
	var committed atomic.Int64
	nodes[0].OnCommit(func(c clanbft.Commit) {
		if c.Block != nil {
			committed.Add(int64(c.Block.TxCount()))
		}
	})
	for _, nd := range nodes {
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for i := 0; i < 40; i++ {
		nodes[i%n].Submit([]byte(fmt.Sprintf("tx-%03d", i)))
	}
	for deadline := time.Now().Add(10 * time.Second); committed.Load() < 40 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Println("committed before the crash:", committed.Load())

	crashRound := nodes[3].Round()
	nodes[3].Close()
	fmt.Println("survivors order on:", nodes[0].WaitRound(crashRound+8, 10*time.Second))

	nodes[3] = start(3, book) // the same store and port
	nodes[3].Start()          // replays the store
	fmt.Println("recovered to its crash round:", nodes[3].Round() >= crashRound)
	fmt.Println("caught up:", nodes[3].WaitRound(nodes[0].Round(), 10*time.Second))
	// Output:
	// committed before the crash: 40
	// survivors order on: true
	// recovered to its crash round: true
	// caught up: true
}
