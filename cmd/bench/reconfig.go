package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"clanbft"
	"clanbft/internal/types"
)

// runReconfig is the live-reconfiguration demonstration on real sockets: a
// 4-node TCP cluster commits a signed join ReconfigTx for a fifth party,
// crosses the scheduled epoch fence with no fork, and the joiner bootstraps
// from a donor snapshot plus WAL suffix (FetchSnapshot), recovers, and is
// observed proposing — its vertices ordered by the original members. The
// headline number is join_to_serving_ms: submit-of-tx to first committed
// vertex authored by the joiner — wall clock, so recorded and not gated; what
// fails the run is a fork across the fence or a joiner that never serves.
// Results go to results/reconfig.txt.
func runReconfig(seed int64) error {
	const (
		universe = 5 // key universe: 4 founding members + 1 joiner
		members  = 4
		joiner   = clanbft.NodeID(4)
		delay    = types.Round(16)
	)
	fmt.Printf("Reconfiguration — 4→5 node TCP cluster, join via committed ReconfigTx\n")

	scratch, err := os.MkdirTemp("", "reconfig-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	base := clanbft.Options{
		N:             universe,
		Members:       []clanbft.NodeID{0, 1, 2, 3},
		ReconfigDelay: delay,
		MaxTxPerBlock: 64,
		ExecQueue:     256,
		Seed:          seed,
	}
	placeholder := map[clanbft.NodeID]string{}
	for i := 0; i < members; i++ {
		placeholder[clanbft.NodeID(i)] = "127.0.0.1:0"
	}

	// Commit order witnesses: per-node position sequences for the fork
	// check, plus first-seen time of a joiner-authored vertex at node 0.
	var mu sync.Mutex
	orders := make([][]types.Position, universe)
	var joinerServed time.Time
	watch := func(i int) func(clanbft.Commit) {
		return func(cv clanbft.Commit) {
			mu.Lock()
			orders[i] = append(orders[i], cv.Vertex.Pos())
			if i == 0 && cv.Vertex.Source == joiner && joinerServed.IsZero() {
				joinerServed = time.Now()
			}
			mu.Unlock()
		}
	}

	nodes := make([]*clanbft.TCPNode, members)
	for i := 0; i < members; i++ {
		opts := base
		opts.StoreDir = fmt.Sprintf("%s/node%d", scratch, i)
		nd, err := clanbft.NewTCPNode(clanbft.TCPNodeOptions{
			Self: clanbft.NodeID(i), Addrs: placeholder, Options: opts,
		})
		if err != nil {
			return err
		}
		defer nd.Close()
		nodes[i] = nd
		nd.OnCommit(watch(i))
	}
	for i := 0; i < members; i++ {
		for j := 0; j < members; j++ {
			if i != j {
				nodes[i].SetPeerAddr(clanbft.NodeID(j), nodes[j].Addr())
			}
		}
	}
	for _, nd := range nodes {
		nd.Start()
	}
	if !nodes[0].WaitRound(10, 15*time.Second) {
		return fmt.Errorf("cluster stuck at round %d before the join", nodes[0].Round())
	}
	preRound := nodes[0].Round()

	// Reserve the joiner's listen address up front: the committed join tx
	// advertises it, the members AddPeer it at the fence, FetchSnapshot
	// binds it transiently, and the real node rebinds it afterwards.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	joinerAddr := l.Addr().String()
	l.Close()

	t0 := time.Now()
	tx := clanbft.SignReconfigTx(universe, seed, clanbft.ReconfigJoin, joiner, joinerAddr)
	for _, nd := range nodes {
		nd.SubmitReconfig(tx)
	}

	// Fence: every member must install and cross into epoch 1.
	fenceDeadline := time.Now().Add(30 * time.Second)
	for _, nd := range nodes {
		for nd.CurrentEpoch() < 1 {
			if time.Now().After(fenceDeadline) {
				return fmt.Errorf("fence never crossed: node at epoch %d round %d",
					nd.CurrentEpoch(), nd.Round())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	fenceAt := time.Since(t0)
	tbl := nodes[0].EpochTable()
	fence := tbl[len(tbl)-1]

	// Joiner bootstrap: snapshot from donor 0, then recover and start.
	jopts := base
	jopts.StoreDir = scratch + "/joiner"
	jbook := map[clanbft.NodeID]string{joiner: joinerAddr}
	for i := 0; i < members; i++ {
		jbook[clanbft.NodeID(i)] = nodes[i].Addr()
	}
	jtcp := clanbft.TCPNodeOptions{Self: joiner, Addrs: jbook, Options: jopts}
	if err := clanbft.FetchSnapshot(jtcp, 0, 15*time.Second); err != nil {
		return fmt.Errorf("snapshot fetch: %w", err)
	}
	snapAt := time.Since(t0)
	jn, err := clanbft.NewTCPNode(jtcp)
	if err != nil {
		return fmt.Errorf("joiner boot: %w", err)
	}
	defer jn.Close()
	jn.OnCommit(watch(int(joiner)))
	jn.Start()

	// Serving: a joiner-authored vertex ordered at node 0.
	serveDeadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		served := !joinerServed.IsZero()
		mu.Unlock()
		if served {
			break
		}
		if time.Now().After(serveDeadline) {
			return fmt.Errorf("joiner never served: epoch %d round %d (fence r%d)",
				jn.CurrentEpoch(), jn.Round(), fence.StartRound)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	joinMs := float64(joinerServed.Sub(t0)) / float64(time.Millisecond)
	mu.Unlock()

	// Let the enlarged cluster run on, then fork-check every witness: all
	// five sequences must be prefix consistent (the joiner's replayed
	// prefix included).
	time.Sleep(2 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	var ref []types.Position
	refNode := -1
	for i, seq := range orders {
		if len(seq) > len(ref) {
			ref, refNode = seq, i
		}
	}
	for i, seq := range orders {
		for j, pos := range seq {
			if i != refNode && pos != ref[j] {
				return fmt.Errorf("FORK: node %d position %d has %v, node %d has %v",
					i, j, pos, refNode, ref[j])
			}
		}
	}
	postRound := nodes[0].Round()
	rate := float64(postRound-preRound) / time.Since(t0).Seconds()

	var out []byte
	out = fmt.Appendf(out, "Reconfiguration — 4→5 node TCP cluster (seed %d)\n", seed)
	out = fmt.Appendf(out, "  fence:            epoch %d at round %d (delay %d rounds)\n",
		fence.Epoch, fence.StartRound, delay)
	out = fmt.Appendf(out, "  members:          %d -> %d\n", members, len(fence.Members))
	out = fmt.Appendf(out, "  fence crossed:    %.0f ms after submit\n",
		float64(fenceAt)/float64(time.Millisecond))
	out = fmt.Appendf(out, "  snapshot fetched: %.0f ms after submit\n",
		float64(snapAt)/float64(time.Millisecond))
	out = fmt.Appendf(out, "  join_to_serving:  %.0f ms (submit -> joiner-authored vertex ordered)\n", joinMs)
	out = fmt.Appendf(out, "  rounds/sec across fence: %.1f (rounds %d -> %d)\n",
		rate, preRound, postRound)
	out = fmt.Appendf(out, "  fork check:       %d witnesses prefix-consistent (longest %d commits)\n",
		universe, len(ref))
	os.Stdout.Write(out)
	if err := os.WriteFile("results/reconfig.txt", out, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote results/reconfig.txt")
	return nil
}
