// clanbft runs consensus nodes over real TCP sockets. Two modes:
//
//	clanbft -local -n 7 -mode single-clan -duration 15s
//	    launches an n-node cluster in one process on loopback TCP, drives a
//	    synthetic workload, and prints throughput/latency — a real-socket
//	    smoke deployment.
//
//	clanbft -id 2 -peers peers.txt -mode sailfish
//	    runs ONE node of a multi-process deployment. peers.txt holds one
//	    "id host:port" pair per line; every process needs the same file and
//	    the same -seed/-mode/-clan flags.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clanbft"
)

func parseMode(s string) (clanbft.Mode, error) {
	switch s {
	case "sailfish", "baseline":
		return clanbft.ModeSailfish, nil
	case "single-clan", "single":
		return clanbft.ModeSingleClan, nil
	case "multi-clan", "multi":
		return clanbft.ModeMultiClan, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func main() {
	var (
		local    = flag.Bool("local", false, "run a full cluster on loopback")
		n        = flag.Int("n", 4, "cluster size")
		modeStr  = flag.String("mode", "sailfish", "sailfish | single-clan | multi-clan")
		clanSize = flag.Int("clan", 0, "single-clan size (0 = solve at 1e-6)")
		numClans = flag.Int("clans", 2, "number of clans (multi-clan)")
		duration = flag.Duration("duration", 15*time.Second, "local-mode run time")
		txRate   = flag.Int("rate", 200, "local-mode submitted txs/sec per proposer")
		txSize   = flag.Int("txsize", 512, "transaction size in bytes")
		id       = flag.Int("id", -1, "this node's id (multi-process mode)")
		peers    = flag.String("peers", "", "address book file: one 'id host:port' per line")
		seed     = flag.Int64("seed", 7, "shared deployment seed")
		storeDir = flag.String("store", "", "persistence directory")
		sparse   = flag.Bool("sparse", false, "sparse strong-edge mode (2f+1 sampled parents)")
	)
	flag.Parse()

	mode, err := parseMode(*modeStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := clanbft.Options{
		N: *n, Mode: mode, ClanSize: *clanSize, NumClans: *numClans,
		Seed: *seed, StoreDir: *storeDir, RoundTimeout: 3 * time.Second,
		SparseEdges: *sparse,
	}

	if *local {
		runLocal(opts, *duration, *txRate, *txSize)
		return
	}
	if *id < 0 || *peers == "" {
		fmt.Fprintln(os.Stderr, "need -local, or -id and -peers")
		os.Exit(2)
	}
	addrs, err := readPeers(*peers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts.N = len(addrs)
	node, err := clanbft.NewTCPNode(clanbft.TCPNodeOptions{
		Self: clanbft.NodeID(*id), Addrs: addrs, Options: opts,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var committed atomic.Int64
	node.OnCommit(func(c clanbft.Commit) {
		if c.Block != nil {
			committed.Add(int64(c.Block.TxCount()))
		}
	})
	node.Start()
	fmt.Printf("node %d listening on %s (%s, n=%d)\n", *id, node.Addr(), mode, opts.N)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(5 * time.Second)
	for {
		select {
		case <-tick.C:
			fmt.Printf("round=%d committed_txs=%d sent=%d msgs\n",
				node.Round(), committed.Load(), node.Stats().MsgsSent)
		case <-sig:
			fmt.Println("shutting down")
			node.Close()
			return
		}
	}
}

func readPeers(path string) (map[clanbft.NodeID]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[clanbft.NodeID]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad peers line %q", line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, err
		}
		out[clanbft.NodeID(id)] = fields[1]
	}
	return out, sc.Err()
}

func runLocal(opts clanbft.Options, duration time.Duration, rate, txSize int) {
	// Bind every node on a dynamic loopback port, then share the book.
	books := make([]map[clanbft.NodeID]string, opts.N)
	addrs := map[clanbft.NodeID]string{}
	nodes := make([]*clanbft.TCPNode, opts.N)
	for i := 0; i < opts.N; i++ {
		books[i] = map[clanbft.NodeID]string{}
		for j := 0; j < opts.N; j++ {
			books[i][clanbft.NodeID(j)] = "127.0.0.1:0"
		}
		nd, err := clanbft.NewTCPNode(clanbft.TCPNodeOptions{
			Self: clanbft.NodeID(i), Addrs: books[i], Options: opts,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		addrs[clanbft.NodeID(i)] = nd.Addr()
		nodes[i] = nd
	}
	for i := range nodes {
		for id, a := range addrs {
			nodes[i].SetPeerAddr(id, a)
		}
	}

	var mu sync.Mutex
	var committed, latSum, latN int64
	created := map[string]time.Time{}
	nodes[0].OnCommit(func(c clanbft.Commit) {
		if c.Block == nil {
			return
		}
		mu.Lock()
		for _, tx := range c.Block.Txs {
			committed++
			if t0, ok := created[string(tx[:16])]; ok {
				latSum += int64(time.Since(t0))
				latN++
				delete(created, string(tx[:16]))
			}
		}
		mu.Unlock()
	})
	for _, nd := range nodes {
		nd.Start()
		defer nd.Close()
	}
	clans := nodes[0].Clans()
	fmt.Printf("local cluster: n=%d mode=%v clans=%v\n", opts.N, opts.Mode, clans)

	// Drive the workload: rate txs/sec per proposer.
	proposers := nodes
	if opts.Mode == clanbft.ModeSingleClan {
		proposers = nil
		for _, id := range clans[0] {
			proposers = append(proposers, nodes[id])
		}
	}
	stop := time.After(duration)
	tick := time.NewTicker(time.Second / 10)
	defer tick.Stop()
	seq := 0
	start := time.Now()
loop:
	for {
		select {
		case <-tick.C:
			per := rate / 10
			for _, nd := range proposers {
				for k := 0; k < per; k++ {
					tx := make([]byte, txSize)
					copy(tx, fmt.Sprintf("tx%013d", seq))
					seq++
					mu.Lock()
					created[string(tx[:16])] = time.Now()
					mu.Unlock()
					nd.Submit(tx)
				}
			}
		case <-stop:
			break loop
		}
	}
	elapsed := time.Since(start)
	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("submitted=%d committed=%d tps=%.0f", seq, committed, float64(committed)/elapsed.Seconds())
	if latN > 0 {
		fmt.Printf(" avg_latency=%v", (time.Duration(latSum) / time.Duration(latN)).Round(time.Millisecond))
	}
	fmt.Printf(" rounds=%d\n", nodes[0].Round())
}
