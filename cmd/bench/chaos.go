package main

import (
	"fmt"
	"os"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/faults/chaos"
	"clanbft/internal/harness"
	"clanbft/internal/metrics"
)

// runChaos executes `perMode` seeded mixed-fault scenarios in each clan mode
// — the same runs TestChaosMixedFaults makes: a chaos.GenSchedule driven
// through harness.Run at n=7 (random drop/dup/reorder rules, a partition
// with heal, and crash/restart cycles with torn WAL tails), then chaos.Check
// for prefix-consistent commits and post-heal liveness. Any violation prints
// the reproduction seed plus the full event trace and makes the run fail;
// re-running with `-seed <printed seed> -chaos-scenarios 1` (and the printed
// mode) replays the identical schedule.
func runChaos(base int64, perMode int, showMetrics bool) error {
	fmt.Printf("Chaos — %d seeded mixed-fault scenarios per mode (base seed %d)\n\n", perMode, base)
	failures := 0
	var snaps []metrics.Snapshot
	for _, mode := range []core.Mode{core.ModeSingleClan, core.ModeMultiClan} {
		for s := int64(0); s < int64(perMode); s++ {
			seed := base + s
			sched := chaos.GenSchedule(seed, 7, 2)
			r := harness.Run(harness.Config{
				Mode: mode, N: 7, Seed: seed, TxPerProposal: 3,
				RoundTimeout: 700 * time.Millisecond,
				// The generated schedule heals at 7 s.
				Warmup: 8500 * time.Millisecond, Measure: 4500 * time.Millisecond,
				Faults: &sched,
			})
			snaps = append(snaps, r.Pipeline)
			if v := chaos.Check(r); v != nil {
				failures++
				fmt.Printf("FAIL %-12s seed=%d\n  violations: %v\n  trace:\n%s\n", mode, seed, v, r.FaultTrace)
				continue
			}
			ordered := make([]int, len(r.Nodes))
			for i, nd := range r.Nodes {
				ordered[i] = len(nd.Order)
			}
			fmt.Printf("ok   %-12s seed=%d ordered=%v\n", mode, seed, ordered)
		}
	}
	if showMetrics {
		fmt.Println("\npipeline metrics (merged across scenarios):")
		metrics.Merge(snaps...).Fprint(os.Stdout)
	}
	if failures > 0 {
		return fmt.Errorf("%d scenario(s) violated safety or liveness — reproduce from the printed seed", failures)
	}
	fmt.Printf("\nall %d scenarios safe and live\n", 2*perMode)
	return nil
}
