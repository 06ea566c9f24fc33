package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"clanbft/internal/perfbench"
)

// runMicro executes the gating micro-benchmarks (encode-once multicast,
// echo-arena receive decode, small-message coalescing, group-commit WAL, end-to-end
// pipeline, the DAG's bytes per commit, gateway admission, the transaction
// path's per-layer allocation counts, and the echo frames, signatures and
// verify jobs one round costs per drain) and
// writes the results as JSON in two sections: the counters CI gates on —
// allocs/op, bytes/op and extras such as fsyncs/op and flushes/msg, so the
// encode-once (allocs/op flat across peer counts), receive decode (a few
// allocs/op per 64 echoes, from the arena), coalescing (flushes/msg well under
// one), group-commit (fsyncs/op < 1) and allocation-free transaction path
// (TxPath/* at zero) claims are checkable from the file alone — and the
// wall-clock readings taken alongside, which nothing gates.
func runMicro(path, baseline string) error {
	fmt.Printf("Micro-benchmarks — transport rx/tx paths, WAL group commit, transaction path\n")
	art := perfbench.Split(perfbench.Suite(os.Stdout))
	out, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if baseline != "" {
		return compareBaseline(art.Counters, baseline)
	}
	return nil
}

// compareBaseline gates CI on the counters of the micro-benchmark suite:
// allocs/op (the encode-once, receive-decode and transaction-path
// claims), flushes/msg (the coalescing claim: writev syscalls per small
// message), fsyncs/op (the group-commit claim), and end-to-end commits/sec
// (the pipeline claim; simulated time, so deterministic), and EchoDrain's
// frames, signatures and verify jobs per drain (exact). All are properties
// of the code path. What reads the wall clock — ns/op, MB/s, p99_ms — sits in
// the artifact's other section and is never compared: it measures the
// runner. The tolerance is ±20% plus a one-allocation absolute slack
// (testing.Benchmark rounds allocs to integers). commits/sec is
// higher-is-better: the gate fails on decreases. Only regressions fail;
// improvements just print. A baseline row the suite no longer produces
// fails too: a gate that is deleted must be deleted from the baseline.
func compareBaseline(rows []perfbench.CounterRow, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var art perfbench.Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	base := art.Counters
	byName := make(map[string]perfbench.CounterRow, len(base))
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
	ran := make(map[string]bool, len(rows))
	for _, r := range rows {
		ran[r.Name] = true
	}
	missing := 0
	for _, b := range base {
		if !ran[b.Name] {
			fmt.Printf("  FAIL %-45s (baseline row missing from the suite)\n", b.Name)
			missing++
		}
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
			// The DAG's metadata cost: wire bytes per committed vertex
			// must not creep back up. The number is deterministic
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
		for k, want := range b.Extra {
			// EchoDrain's frames, signatures and verify jobs per number of
			// drains, at round 0 and at a frontier round, are exact counts:
			// any rise is a regression.
			if !strings.Contains(k, "/drains=") {
				continue
			}
			got, status := r.Extra[k], "ok  "
			if got > want {
				status = "FAIL"
				regressions++
			}
			fmt.Printf("  %s %-45s %-11s %.3f (baseline %.3f, limit %.3f)\n", status, r.Name, k, got, want, want)
		}
		if want, ok := b.Extra["admit_share"]; ok {
			// The admission benchmark's virtual clock makes the share a
			// deterministic property of the token-bucket arithmetic
			// (offered = 2x refill → share 0.5). The floor catches a
			// refill or eviction bug that collapses admission.
			checkMin(r.Name, "admit_share", r.Extra["admit_share"], want)
		}
	}
	if regressions > 0 || missing > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond tolerance, %d baseline row(s) missing from the suite", regressions, missing)
	}
	return nil
}
