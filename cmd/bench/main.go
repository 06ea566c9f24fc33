// bench regenerates the paper's evaluation artifacts on the deterministic
// network simulator. Each experiment prints the same series/rows the paper
// reports; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	bench -exp fig1      # Figure 1: clan size vs n
//	bench -exp table1    # Table 1: the latency matrix driving the simulator
//	bench -exp fig5a     # Figure 5a: throughput vs latency, n=50
//	bench -exp fig5b     # Figure 5b: n=100
//	bench -exp fig5c     # Figure 5c: n=150 incl. multi-clan
//	bench -exp fig6      # Figure 6: throughput vs txs/proposal, n=150
//	bench -exp sec62     # Section 6.2 concrete probabilities
//	bench -exp comm      # communication-complexity accounting
//	bench -exp ablate    # single-clan throughput vs clan size
//	bench -exp sparse    # sparse-edge DAG scaling: n=50/100/200, dense vs sparse
//	bench -exp micro     # transport/WAL/pipeline/parallel-exec/gateway/tx-path micro-benchmarks -> BENCH_BASELINE.json
//	bench -exp chaos     # seeded mixed-fault property runner (safety+liveness)
//	bench -exp gateway   # serving front door under overload: TCP gateway + open-loop load -> results/gateway.txt
//	bench -exp reconfig  # live membership change: 4->5 node TCP cluster, join via committed ReconfigTx -> results/reconfig.txt
//	bench -exp all       # every simulator experiment (micro/chaos/gateway/reconfig run only when named)
//
// -baseline compares the counters of -exp micro against a checked-in JSON
// artifact and fails on regressions beyond tolerance: allocs/op and
// fsyncs/op must not rise more than 20%, virtual-time commits/sec must not
// fall below 80% of baseline (the CI bench-regression gate). Wall-clock
// readings are written to the artifact's own section and never compared.
// -chaos-scenarios sets the seeds swept per clan mode for -exp chaos; -seed
// is the first seed.
//
// -metrics prints the merged per-stage pipeline metrics snapshot (queue
// depths, occupancy, latency histograms for intake/rbc/order/exec, plus
// transport/store counters) after each experiment.
//
// -cpuprofile and -memprofile write pprof artifacts covering the whole run;
// see EXPERIMENTS.md for the profiling workflow.
//
// -quick shrinks windows and load sets (minutes instead of hours);
// -full runs the paper's complete 13-point load sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/harness"
	"clanbft/internal/metrics"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id (fig1|table1|fig5a|fig5b|fig5c|fig6|sec62|comm|ablate|all)")
		quick = flag.Bool("quick", false, "short windows and fewer load points")
		full  = flag.Bool("full", false, "the paper's full 13-point load sweep (hours)")
		seed  = flag.Int64("seed", 1, "simulation seed")
		mout  = flag.String("micro-out", "BENCH_BASELINE.json", "output path for -exp micro results")
		mbase = flag.String("baseline", "", "baseline JSON whose counters gate -exp micro (allocs/op, fsyncs/op, commits/sec)")
		nchao = flag.Int("chaos-scenarios", 10, "seeds per clan mode for -exp chaos")
		warmF = flag.Duration("warmup", 4*time.Second, "simulated warmup window")
		measF = flag.Duration("measure", 10*time.Second, "simulated measurement window")
		showm = flag.Bool("metrics", false, "print the merged per-stage pipeline metrics after each experiment")
		cpup  = flag.String("cpuprofile", "", "write a CPU profile covering the whole run")
		memp  = flag.String("memprofile", "", "write a heap profile at exit")
	)
	flag.Parse()
	debug.SetGCPercent(400)
	debug.SetMemoryLimit(12 << 30)

	// Profiling covers everything between flag parsing and exit, including
	// the exit-on-error paths (fail stops the profile before os.Exit, which
	// would skip deferred stops).
	var cpuf *os.File
	if *cpup != "" {
		f, err := os.Create(*cpup)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		cpuf = f
	}
	finishProfiles := func() {
		if cpuf != nil {
			pprof.StopCPUProfile()
			cpuf.Close()
			cpuf = nil
			fmt.Fprintf(os.Stderr, "wrote cpu profile %s\n", *cpup)
		}
		if *memp != "" {
			f, err := os.Create(*memp)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote heap profile %s\n", *memp)
		}
	}
	fail := func(prefix string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prefix, err)
		finishProfiles()
		os.Exit(1)
	}

	warm, meas := *warmF, *measF
	loads := harness.DefaultLoads
	if *quick {
		warm, meas = 2*time.Second, 5*time.Second
		loads = []int{500, 3000}
	}
	if *full {
		loads = harness.PaperLoads
	}

	run := func(name string) bool { return *exp == name || *exp == "all" }
	start := time.Now()

	// printPipeline renders the unified metrics spine for one experiment:
	// every Result carries its cluster-merged snapshot; merging across rows
	// gives the experiment-wide view.
	printPipeline := func(rs []harness.Result) {
		if !*showm {
			return
		}
		snaps := make([]metrics.Snapshot, len(rs))
		for i, r := range rs {
			snaps[i] = r.Pipeline
		}
		fmt.Println("  pipeline metrics (merged across rows):")
		metrics.Merge(snaps...).Fprint(os.Stdout)
		fmt.Println()
	}

	// Micro-benchmarks run only when named: they measure the real transport
	// and store, not the simulator, and emit their own JSON artifact.
	if *exp == "micro" {
		if err := runMicro(*mout, *mbase); err != nil {
			fail("micro", err)
		}
		fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start).Round(time.Second))
		finishProfiles()
		return
	}

	// The gateway overload experiment runs only when named: it is the one
	// wall-clock experiment (real TCP sockets, real time) and takes ~20s.
	if *exp == "gateway" {
		if err := runGateway(*seed, *quick); err != nil {
			fail("gateway", err)
		}
		fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start).Round(time.Second))
		finishProfiles()
		return
	}

	// The reconfiguration demo runs only when named: real sockets and wall
	// clock (a joining node fetches a snapshot and must catch up live).
	if *exp == "reconfig" {
		if err := runReconfig(*seed); err != nil {
			fail("reconfig", err)
		}
		fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start).Round(time.Second))
		finishProfiles()
		return
	}

	// The latency-compression experiment runs only when named: static vs
	// reputation+pipelined schedules under a crashed rotation member.
	if *exp == "latency" {
		if err := runLatency(*seed, *quick); err != nil {
			fail("latency", err)
		}
		fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start).Round(time.Second))
		finishProfiles()
		return
	}

	// The chaos property runner likewise runs only when named: it exercises
	// disk stores and fault schedules, not the throughput experiments.
	if *exp == "chaos" {
		if err := runChaos(*seed, *nchao, *showm); err != nil {
			fail("chaos", err)
		}
		fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start).Round(time.Second))
		finishProfiles()
		return
	}

	if run("fig1") {
		harness.PrintFigure1(os.Stdout)
		fmt.Println()
	}
	if run("table1") {
		harness.PrintTable1(os.Stdout)
		fmt.Println()
	}
	if run("sec62") {
		two, three := harness.Section62Numbers()
		fmt.Println("Section 6.2 — multi-clan dishonest-majority probabilities")
		fmt.Printf("  n=150, 2 clans of 75:  %.4g   (paper: 4.015e-6)\n", two)
		fmt.Printf("  n=387, 3 clans of 129: %.4g   (paper: 1.11e-6)\n", three)
		fmt.Println()
	}
	if run("fig5a") {
		rs := harness.Figure5(harness.SweepConfig{N: 50, Loads: loads, Warmup: warm, Measure: meas, Seed: *seed})
		harness.PrintSweep(os.Stdout, "Figure 5a — throughput vs latency at n=50", rs)
		fmt.Println()
		printPipeline(rs)
	}
	if run("fig5b") {
		rs := harness.Figure5(harness.SweepConfig{N: 100, Loads: loads, Warmup: warm, Measure: meas, Seed: *seed})
		harness.PrintSweep(os.Stdout, "Figure 5b — throughput vs latency at n=100", rs)
		fmt.Println()
		printPipeline(rs)
	}
	if run("fig5c") {
		rs := harness.Figure5(harness.SweepConfig{N: 150, Loads: loads, Warmup: warm, Measure: meas, Seed: *seed})
		harness.PrintSweep(os.Stdout, "Figure 5c — throughput vs latency at n=150 (incl. multi-clan)", rs)
		fmt.Println()
		printPipeline(rs)
	}
	if run("fig6") {
		rs := harness.Figure5(harness.SweepConfig{
			N: 150, Loads: harness.Fig6Loads, Warmup: warm, Measure: meas, Seed: *seed,
			Modes: []core.Mode{core.ModeBaseline, core.ModeSingleClan, core.ModeMultiClan},
		})
		harness.PrintSweep(os.Stdout, "Figure 6 — throughput vs txs/proposal at n=150", rs)
		fmt.Println()
		printPipeline(rs)
	}
	if run("ablate") {
		n := 50
		sizes := []int{26, 32, 40, 50}
		rs := harness.AblateClanSize(n, 3000, sizes, *seed)
		harness.PrintSweep(os.Stdout, "Ablation — single-clan throughput vs clan size (n=50, 3000 txs/prop)", rs)
		fmt.Println("  (clan=50 degenerates to full dissemination with clan-only proposers)")
		fmt.Println()
		printPipeline(rs)
	}
	// The sparse-edge scaling sweep runs only when named: n=200 clusters
	// cost minutes of host CPU per row even with short windows.
	if *exp == "sparse" {
		ns := []int{50, 100, 200}
		sw, sm := 1*time.Second, 3*time.Second
		if *quick {
			ns = []int{50, 100}
		}
		rows := harness.SparseDagScale(ns, sw, sm, *seed)
		harness.PrintSparse(os.Stdout, "Sparse-edge DAG scaling — multi-clan, dense vs sparse", rows)
		fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start).Round(time.Second))
		finishProfiles()
		return
	}

	if run("comm") {
		n, load := 40, 1000
		if *quick {
			n = 20
		}
		rows := harness.CommComplexity(n, load, *seed)
		harness.PrintComm(os.Stdout, rows)
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start).Round(time.Second))
	finishProfiles()
}
