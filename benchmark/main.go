// Command clanbench is the repository's wall-clock benchmark: one invocation
// boots one workload's cluster in-process on real loopback sockets behind
// delay relays, drives it through the gateway protocol, checks the outputs
// and prints every metric by name with its unit. README.md has the workload
// and metric tables; run.sh builds and runs it.
//
//	clanbench --workload wan_steady --seed 1 --seconds 20 --trace 0
//	clanbench --workload wan_steady --seed 1 --seconds 20 --trace 1
//	clanbench -series 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the contract's last line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("clanbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	series := fs.Int("series", 0, "run this many seeds of each workload, twice, and judge the spreads by the driver's rule")
	out := fs.String("out", "out", "scratch directory (trace files, probe files)")
	list := fs.Bool("list", false, "print workloads and metrics, then exit")
	fs.Parse(os.Args[1:])

	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("workload %-18s %s\n", w.name, w.why)
		}
		for _, d := range endToEnd {
			fmt.Printf("end-to-end %-32s %-6s bound %.2f\n", d.name, d.unit, d.bound)
		}
		for _, d := range perLayer {
			fmt.Printf("per-layer  %-32s %s\n", d.name, d.unit)
		}
		return
	case *series > 0:
		if !runSeries(*series, *seconds, *name) {
			os.Exit(1)
		}
		return
	}

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "clanbench: need --workload (one of -list), --seconds >= 1 and --trace 0 or 1\n")
		os.Exit(2)
	}
	res, err := run(runConfig{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1,
		boots: defaultBoots, outDir: *out, report: os.Stdout})
	if err != nil {
		fmt.Fprintf(os.Stderr, "clanbench: %v\n", err)
		os.Exit(1)
	}
	for _, e := range res.gateErrs {
		fmt.Printf("GATE: %v\n", e)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	outJSON := resultJSON{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "clanbench: metric %s was not measured\n", d.name)
			os.Exit(1)
		}
		outJSON.Metrics[d.name] = metricJSON{v, d.unit}
		fmt.Printf("%-34s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Printf("%s seed %d: attempted %d, failed %d, correct %v, generator lag p99 %.3f ms\n",
		w.name, *seed, res.attempted, res.failed, res.correct(), res.genLagP99)
	// Auxiliary line for -series: validity figures that are not metrics.
	aux, _ := json.Marshal(map[string]float64{"gen_lag_p99_ms": res.genLagP99})
	fmt.Printf("aux %s\n", aux)
	line, err := json.Marshal(outJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clanbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
