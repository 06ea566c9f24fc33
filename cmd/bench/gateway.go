package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"clanbft"
	"clanbft/internal/gateway/load"
)

// The overload experiment's fixed parameters. gwExecCost models
// per-transaction execution work on node 0's exec goroutine: it fixes the
// node's sustainable commit rate at 1/gwExecCost (4,000 tx/s), making "2×
// sustainable" a deterministic target instead of a machine-speed lottery.
const (
	gwMaxTxPerBlock = 512
	gwExecCost      = 250 * time.Microsecond
)

// gatewayPhase is one open-loop load phase and what the generator saw.
type gatewayPhase struct {
	name string
	rate float64 // configured arrival rate, tx/s
	rep  *load.Report
}

// runGateway executes the serving-front-door overload experiment: a 4-node
// wall-clock cluster over ChanNet fronted by a real TCP gateway on node 0,
// driven by the open-loop generator through an unreported 0.2× warm-up and
// then at 1× and 2× the exec-bound sustainable rate. The table lands in
// results/gateway.txt (plus stdout), and the full e2e latency histograms in
// results/gateway_hist.json, so the overload-shed claim — at 2× the
// sustainable load, goodput holds within 10% while the admission layer's
// rejects absorb the excess — is checkable from the artifacts alone.
func runGateway(seed int64, quick bool) error {
	warmup, window := 2*time.Second, 8*time.Second
	if quick {
		warmup, window = time.Second, 4*time.Second
	}
	c, err := clanbft.NewCluster(clanbft.Options{N: 4, MaxTxPerBlock: gwMaxTxPerBlock, ExecQueue: 256, Seed: seed})
	if err != nil {
		return err
	}
	// Registered before the gateway's hook, so each COMMIT follows
	// execution. Offered load beyond 1/gwExecCost piles up behind the sleep
	// and surfaces as exec.queue_wait, the signal the gateway's overload
	// monitor watches.
	c.OnCommit(0, func(cv clanbft.Commit) {
		if cv.Block != nil && !cv.Block.IsSynthetic() {
			time.Sleep(time.Duration(len(cv.Block.Txs)) * gwExecCost)
		}
	})
	gw, err := c.ServeGateway(0, clanbft.GatewayOptions{
		Addr: "127.0.0.1:0",
		Limits: clanbft.GatewayLimits{
			// Per-client buckets out of the way: this experiment measures
			// the global backpressure layer. A low queue-wait threshold
			// keeps the oscillation tight and admitted latency bounded.
			ClientRate:    1e6,
			MempoolHigh:   gwMaxTxPerBlock * 8,
			QueueWaitHigh: 150 * time.Millisecond,
			SamplePeriod:  25 * time.Millisecond,
		},
	})
	if err != nil {
		c.Stop()
		return err
	}
	c.Start()
	sustainable := 1 / gwExecCost.Seconds()
	var phases []gatewayPhase
	for _, p := range []struct {
		name   string
		factor float64
		dur    time.Duration
	}{{"warmup", 0.2, warmup}, {"sustainable-1x", 1, window}, {"overload-2x", 2, window}} {
		rate := p.factor * sustainable
		rep, lerr := load.Run(load.Config{
			Addr: gw.Addr(), Clients: 2000, Rate: rate, Duration: p.dur, Seed: seed,
		})
		if lerr != nil {
			err = fmt.Errorf("gateway phase %s: %w", p.name, lerr)
			break
		}
		phases = append(phases, gatewayPhase{p.name, rate, rep})
	}
	gw.Close()
	c.Stop()
	if err != nil {
		return err
	}
	phases = phases[1:] // the warm-up is not reported

	ratio := 0.0
	if g := phases[0].rep.GoodputTPS; g > 0 {
		ratio = phases[1].rep.GoodputTPS / g
	}
	shedOK := phases[1].rep.Rejected > 0 && ratio >= 0.9

	if err := os.MkdirAll("results", 0o755); err != nil {
		return err
	}
	f, err := os.Create("results/gateway.txt")
	if err != nil {
		return err
	}
	printGateway(io.MultiWriter(os.Stdout, f), sustainable, phases, ratio, shedOK)
	if err := f.Close(); err != nil {
		return err
	}
	hists := map[string]*load.Hist{}
	for _, p := range phases {
		hists["e2e_"+p.name] = p.rep.E2E
	}
	if err := load.WriteHistFile("results/gateway_hist.json", hists); err != nil {
		return err
	}
	fmt.Println("wrote results/gateway.txt, results/gateway_hist.json")
	if !shedOK {
		return fmt.Errorf("overload shed claim failed: ratio=%.3f rejected=%d",
			ratio, phases[1].rep.Rejected)
	}
	return nil
}

// printGateway renders the experiment like the paper-figure tables.
func printGateway(w io.Writer, sustainable float64, phases []gatewayPhase, ratio float64, shedOK bool) {
	fmt.Fprintf(w, "Gateway overload shed (sustainable %.0f tx/s, exec-bound)\n", sustainable)
	fmt.Fprintf(w, "%-16s %10s %10s %10s %10s %10s %9s %9s %9s\n",
		"phase", "offered/s", "offered", "committed", "rejected", "goodput/s", "p50", "p99", "p999")
	for _, p := range phases {
		r := p.rep
		fmt.Fprintf(w, "%-16s %10.0f %10d %10d %10d %10.0f %9v %9v %9v\n",
			p.name, p.rate, r.Offered, r.Committed, r.Rejected, r.GoodputTPS,
			r.E2E.Quantile(0.50).Round(time.Millisecond), r.E2E.Quantile(0.99).Round(time.Millisecond),
			r.E2E.Quantile(0.999).Round(time.Millisecond))
		for reason, n := range r.RejectsBy {
			fmt.Fprintf(w, "%-16s   rejected[%s] = %d\n", "", reason, n)
		}
	}
	fmt.Fprintf(w, "goodput ratio (2x/1x) = %.3f; overload shed %s\n",
		ratio, map[bool]string{true: "OK: admission saturates before the core", false: "NOT OK"}[shedOK])
}
