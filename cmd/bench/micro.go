package main

import (
	"encoding/json"
	"fmt"
	"os"

	"clanbft/internal/perfbench"
)

// runMicro executes the PR's gating micro-benchmarks (encode-once multicast,
// zero-copy receive, small-message coalescing, group-commit WAL, end-to-end
// pipeline, and the parallel execution engine's tx/s-vs-dependency-rate
// sweep) and writes the results as JSON. The artifact records ns/op and allocs/op per
// benchmark, plus extra metrics such as fsyncs/op and flushes/msg, so the
// encode-once (allocs/op flat across peer counts), zero-copy (rx allocs/op a
// small fraction of the copying path), coalescing (flushes/msg well under
// one), and group-commit (fsyncs/op < 1) claims are checkable from the file
// alone.
func runMicro(path, baseline string) error {
	fmt.Printf("Micro-benchmarks — transport rx/tx paths + WAL group commit\n")
	rows := perfbench.Suite(os.Stdout)
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if baseline != "" {
		return compareBaseline(rows, baseline)
	}
	return nil
}

// compareBaseline gates CI on the structural metrics of the micro-benchmark
// suite: allocs/op (the encode-once and zero-copy-receive claims),
// flushes/msg (the coalescing claim: writev syscalls per small message),
// fsyncs/op (the group-commit claim), and end-to-end commits/sec (the
// pipeline claim; simulated time, so deterministic). All are properties of
// the code path, unlike ns/op, which depends on the runner — so only they
// gate, with a ±20% tolerance plus a one-allocation absolute slack
// (testing.Benchmark rounds allocs to integers). commits/sec is
// higher-is-better: the gate fails on decreases. Only regressions fail;
// improvements just print.
func compareBaseline(rows []perfbench.Row, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base []perfbench.Row
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	byName := make(map[string]perfbench.Row, len(base))
	for _, r := range base {
		byName[r.Name] = r
	}
	fmt.Printf("\nRegression gate vs %s (±20%%):\n", path)
	regressions := 0
	check := func(name, metric string, got, want, slack float64) {
		limit := want*1.2 + slack
		status := "ok  "
		if got > limit {
			status = "FAIL"
			regressions++
		}
		fmt.Printf("  %s %-45s %-11s %.3f (baseline %.3f, limit %.3f)\n",
			status, name, metric, got, want, limit)
	}
	// checkMin is check for higher-is-better metrics: regression = falling
	// below 80% of the baseline.
	checkMin := func(name, metric string, got, want float64) {
		limit := want * 0.8
		status := "ok  "
		if got < limit {
			status = "FAIL"
			regressions++
		}
		fmt.Printf("  %s %-45s %-11s %.3f (baseline %.3f, floor %.3f)\n",
			status, name, metric, got, want, limit)
	}
	for _, r := range rows {
		b, ok := byName[r.Name]
		if !ok {
			fmt.Printf("  new  %-45s (no baseline entry)\n", r.Name)
			continue
		}
		check(r.Name, "allocs/op", float64(r.AllocsPerOp), float64(b.AllocsPerOp), 1)
		if want, ok := b.Extra["flushes/msg"]; ok {
			// Writev syscalls per small message (the coalescing claim). The
			// batch split depends on writer/queue timing, so 0.2 absolute
			// slack absorbs scheduler jitter; losing coalescing entirely
			// lands at 1.0 and still trips the gate.
			check(r.Name, "flushes/msg", r.Extra["flushes/msg"], want, 0.2)
		}
		if want, ok := b.Extra["fsyncs/op"]; ok {
			// Group formation depends on disk latency, so fsyncs/op moves
			// with the runner's storage; 0.1 absolute slack keeps the gate
			// meaningful (a no-batching regression lands at 1.0) without
			// tripping on scheduler jitter.
			check(r.Name, "fsyncs/op", r.Extra["fsyncs/op"], want, 0.1)
		}
		if want, ok := b.Extra["commits/sec"]; ok {
			checkMin(r.Name, "commits/sec", r.Extra["commits/sec"], want)
		}
		if want, ok := b.Extra["commit_latency_p50"]; ok {
			// Creation-to-ordering p50 under the faulted latency-compression
			// scenario (milliseconds; simulated time, so deterministic).
			// Lower is better: a regression in offense detection, the apply
			// fence, or the slot-fate rules parks the p50 near the
			// RoundTimeout — a multiple of the baseline, not a few percent.
			check(r.Name, "commit_latency_p50", r.Extra["commit_latency_p50"], want, 0)
		}
		if want, ok := b.Extra["order_work/vertex"]; ok {
			// Structural ordering work per delivered vertex with every
			// member an anchor at n=100 (edges tallied, fates evaluated,
			// DAG edges walked — counts, deterministic). A per-slot scan or
			// a per-anchor rescan of the round creeping back in is a
			// multiple of n, not a few percent.
			check(r.Name, "order_work/vertex", r.Extra["order_work/vertex"], want, 0)
		}
		if want, ok := b.Extra["bytes/commit"]; ok {
			// The sparse-edge metadata claim: wire bytes per committed
			// vertex must not creep back up. The number is deterministic
			// (virtual time, fixed seed, analytic byte accounting), so the
			// limit is the baseline plus 2% headroom — any protocol change
			// that raises it must re-record the baseline deliberately.
			got, limit := r.Extra["bytes/commit"], want*1.02
			status := "ok  "
			if got > limit {
				status = "FAIL"
				regressions++
			}
			fmt.Printf("  %s %-45s %-11s %.3f (baseline %.3f, limit %.3f)\n",
				status, r.Name, "bytes/commit", got, want, limit)
		}
		if want, ok := b.Extra["admit_share"]; ok {
			// The admission benchmark's virtual clock makes the share a
			// deterministic property of the token-bucket arithmetic
			// (offered = 2x refill → share 0.5). The floor catches a
			// refill or eviction bug that collapses admission.
			checkMin(r.Name, "admit_share", r.Extra["admit_share"], want)
		}
		if want, ok := b.Extra["p99_ms"]; ok {
			// Client e2e p99 through the gateway protocol. Wall-clock on
			// a shared CI runner, so the gate is deliberately loose:
			// ±20% plus 25ms absolute slack. It exists to catch
			// structural regressions (a lost notification path or an
			// added batching delay is a multiple, not a few percent).
			check(r.Name, "p99_ms", r.Extra["p99_ms"], want, 25)
		}
		if want, ok := b.Extra["join_to_serving_ms"]; ok {
			// Wall-clock from ReconfigTx submission to the first
			// joiner-authored committed vertex (-exp reconfig): fence
			// crossing plus snapshot transfer plus live catch-up on a
			// shared runner, so ±20% with 2s absolute slack. A lost
			// snapshot path or a joiner that re-runs history from round
			// zero is a multiple, not a few percent.
			check(r.Name, "join_to_serving_ms", r.Extra["join_to_serving_ms"], want, 2000)
		}
		if want, ok := b.Extra["tx/s"]; ok {
			// The parallel execution engine's throughput. The validation
			// cost is sleep-modeled, so the rate is stable across runners;
			// the 80% floor catches a scheduling or leveling regression
			// (losing parallelism entirely is a ~8x drop at conflict=0).
			checkMin(r.Name, "tx/s", r.Extra["tx/s"], want)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond tolerance", regressions)
	}
	return nil
}
