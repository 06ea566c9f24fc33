// clanbft runs one consensus node of a multi-process deployment over real
// TCP sockets:
//
//	clanbft -id 2 -peers peers.txt -mode sailfish
//
// peers.txt holds one "id host:port" pair per line, and its length is the
// deployment's n; every process needs the same file and the same
// -seed/-mode/-clan/-clans flags. For a whole cluster in one process, driven
// by a workload, see cmd/loadgen -selfhost.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
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
		modeStr  = flag.String("mode", "sailfish", "sailfish | single-clan | multi-clan")
		clanSize = flag.Int("clan", 0, "single-clan size (0 = solve at 1e-6)")
		numClans = flag.Int("clans", 2, "number of clans (multi-clan)")
		id       = flag.Int("id", -1, "this node's id")
		peers    = flag.String("peers", "", "address book file: one 'id host:port' per line")
		seed     = flag.Int64("seed", 7, "shared deployment seed")
		storeDir = flag.String("store", "", "persistence directory")
	)
	flag.Parse()

	mode, err := parseMode(*modeStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *id < 0 || *peers == "" {
		fmt.Fprintln(os.Stderr, "need -id and -peers")
		os.Exit(2)
	}
	addrs, err := readPeers(*peers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := clanbft.Options{
		N: len(addrs), Mode: mode, ClanSize: *clanSize, NumClans: *numClans,
		Seed: *seed, StoreDir: *storeDir,
	}
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
