// loadgen drives a clanbft client gateway with the open-loop load harness:
// a configurable population of simulated clients submitting at a fixed
// aggregate arrival rate with zipfian key popularity, measuring end-to-end
// commit latency (p50/p99/p999) and goodput.
//
// Two modes:
//
//	loadgen -addr host:port ...      # drive an existing gateway
//	loadgen -selfhost ...            # boot an -n node cluster + gateway
//	                                 # in-process, then drive it
//
// -selfhost exists for CI: the load-smoke job runs one binary that brings up
// real consensus over real sockets (clanbft.NewCluster, -mode, -clan and
// -clans as for cmd/clanbft), fronts the first proposer with the gateway —
// reads answered by the executors of its clan, its own first — applies load,
// and gates on the result:
//
//	-max-rejects N   fail if the admission layer rejected more than N
//	                 submissions (use 0 when offering below capacity)
//	-p99-max D       fail if committed-e2e p99 exceeds D (0 disables)
//
// Connection/protocol errors always fail the run. -hist-out dumps the full
// latency histograms as JSON for artifact upload.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"clanbft"
	"clanbft/internal/execution"
	"clanbft/internal/gateway/load"
)

func main() {
	var (
		addr     = flag.String("addr", "", "gateway address to drive (omit with -selfhost)")
		selfhost = flag.Bool("selfhost", false, "boot a cluster + gateway in-process and drive it")
		n        = flag.Int("n", 4, "selfhost cluster size")
		modeStr  = flag.String("mode", "sailfish", "selfhost mode: sailfish | single-clan | multi-clan")
		clanSize = flag.Int("clan", 0, "selfhost single-clan size (0 = solve at 1e-6)")
		numClans = flag.Int("clans", 2, "selfhost number of clans (multi-clan)")
		rate     = flag.Float64("rate", 1000, "aggregate offered load, tx/s (open loop)")
		duration = flag.Duration("duration", 5*time.Second, "submission window")
		drain    = flag.Duration("drain", 10*time.Second, "max wait for outstanding commits after the window")
		conns    = flag.Int("conns", 4, "TCP connections")
		clients  = flag.Int("clients", 1000, "simulated client population")
		txSize   = flag.Int("tx-size", 128, "transaction value bytes")
		keys     = flag.Int("keys", 65536, "key-space size")
		zipfS    = flag.Float64("zipf", 1.1, "zipf skew (<=1 uniform)")
		readFrac = flag.Float64("read-frac", 0, "fraction of ops issued as f_c+1 reads")
		seed     = flag.Int64("seed", 1, "generator seed")
		histOut  = flag.String("hist-out", "", "write latency histograms (JSON) to this path")
		p99Max   = flag.Duration("p99-max", 0, "fail if committed-e2e p99 exceeds this (0 = no gate)")
		maxRej   = flag.Int64("max-rejects", -1, "fail if rejects exceed this (-1 = no gate)")
	)
	flag.Parse()
	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
		os.Exit(1)
	}

	target := *addr
	if *selfhost {
		modes := map[string]clanbft.Mode{"sailfish": clanbft.ModeSailfish, "single-clan": clanbft.ModeSingleClan, "multi-clan": clanbft.ModeMultiClan}
		mode, ok := modes[*modeStr]
		if !ok {
			fatal("unknown mode %q", *modeStr)
		}
		c, err := clanbft.NewCluster(clanbft.Options{N: *n, Mode: mode, ClanSize: *clanSize, NumClans: *numClans, MaxTxPerBlock: 512})
		if err != nil {
			fatal("selfhost: %v", err)
		}
		host := c.Proposers()[0]
		clan := c.Proposers()
		if clans := c.Clans(); len(clans) > 0 {
			clan = clans[c.ClanOf(host)]
		}
		// Executors apply before the gateway's commit hook (registration
		// order), so a notified client's next read sees its write. A nil key:
		// reads match on version and value, not on signed responses.
		var responders []clanbft.GatewayStateReader
		for _, id := range append([]clanbft.NodeID{host}, slices.DeleteFunc(clan, func(m clanbft.NodeID) bool { return m == host })...) {
			ex := execution.NewExecutor(id, nil)
			c.Node(int(id)).OnCommit(ex.Apply)
			responders = append(responders, clanbft.GatewayReaderFunc(ex.GetVersioned))
		}
		gw, err := c.Node(int(host)).ServeGateway(clanbft.GatewayOptions{
			Addr:       "127.0.0.1:0",
			Responders: responders,
			Limits:     clanbft.GatewayLimits{ClientRate: 1e6},
		})
		if err != nil {
			c.Stop()
			fatal("selfhost: %v", err)
		}
		c.Start()
		defer func() {
			gw.Close()
			c.Stop()
		}()
		target = gw.Addr()
		fmt.Printf("selfhost cluster up; gateway at %s\n", target)
	} else if target == "" {
		fatal("need -addr or -selfhost")
	}

	rep, err := load.Run(load.Config{
		Addr:     target,
		Conns:    *conns,
		Clients:  *clients,
		Rate:     *rate,
		Duration: *duration,
		Drain:    *drain,
		TxSize:   *txSize,
		Keys:     *keys,
		ZipfS:    *zipfS,
		ReadFrac: *readFrac,
		Seed:     *seed,
		OnTick: func(elapsed time.Duration, committed uint64) {
			fmt.Printf("  t=%-4v committed=%d\n", elapsed.Round(time.Second), committed)
		},
	})
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("\n%s\n", rep)
	fmt.Printf("ack latency p50=%v p99=%v\n",
		rep.AckLat.Quantile(0.50).Round(time.Microsecond),
		rep.AckLat.Quantile(0.99).Round(time.Microsecond))
	fmt.Printf("server commit latency p50=%v p99=%v\n",
		rep.SrvCommit.Quantile(0.50).Round(time.Millisecond),
		rep.SrvCommit.Quantile(0.99).Round(time.Millisecond))
	if len(rep.RejectsBy) > 0 {
		reasons := make([]string, 0, len(rep.RejectsBy))
		for r := range rep.RejectsBy {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Printf("rejected[%s] = %d\n", r, rep.RejectsBy[r])
		}
	}
	if *readFrac > 0 {
		fmt.Printf("reads ok=%d err=%d\n", rep.ReadsOK, rep.ReadsErr)
	}

	if *histOut != "" {
		if err := load.WriteHistFile(*histOut, map[string]*load.Hist{
			"e2e_commit": rep.E2E,
			"admission":  rep.AckLat,
			"srv_commit": rep.SrvCommit,
		}); err != nil {
			fatal("hist-out: %v", err)
		}
		fmt.Printf("wrote %s\n", *histOut)
	}

	// Gates. Connection errors are always fatal: a died connection means
	// lost frames, which silently censors the latency distribution.
	failed := false
	if rep.ConnErrs > 0 {
		fmt.Fprintf(os.Stderr, "GATE FAIL: %d connection errors\n", rep.ConnErrs)
		failed = true
	}
	if rep.Committed == 0 {
		fmt.Fprintf(os.Stderr, "GATE FAIL: nothing committed\n")
		failed = true
	}
	if *maxRej >= 0 && int64(rep.Rejected) > *maxRej {
		fmt.Fprintf(os.Stderr, "GATE FAIL: %d rejects > max %d\n", rep.Rejected, *maxRej)
		failed = true
	}
	if *p99Max > 0 {
		if p99 := rep.E2E.Quantile(0.99); p99 > *p99Max {
			fmt.Fprintf(os.Stderr, "GATE FAIL: e2e p99 %v > max %v\n", p99.Round(time.Millisecond), *p99Max)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("gates passed")
}
