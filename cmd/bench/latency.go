package main

import (
	"fmt"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/faults"
	"clanbft/internal/harness"
)

// runLatency is the latency-compression experiment: the same seeded
// geo-distributed nine-party cluster, every member an anchor (the default),
// with one member crashed before the measurement window, once under the
// static round-robin leader schedule and once with the reputation-driven
// schedule. The primary rotates one member a round, so the static schedule
// hands the dead member the primary slot every ninth round and pays a full
// RoundTimeout each time, for as long as the run lasts: the timeouts eat
// rounds (fewer vertices ordered in the window) and every vertex of a stalled
// round inherits the wait (the p95). Reputation demotes the offender after
// its first committed timeout certificate — an eight-party table puts a live
// primary in every round — so the stall is paid once. The dead member's
// anchor slots cost neither schedule anything after the first few rounds:
// they stop being live (DESIGN.md, "Latency compression"). The headline claim,
// gated here, is at least 25% more vertices ordered in the window and a lower
// commit p95 for the compressed configuration; the compressed run's commit
// p50 is the commit_latency_p50 row of the micro-benchmark baseline. Two
// companion pairs bracket the claim: a clean run (no faults) must show commit
// parity — the reputation machinery must cost nothing when nobody misbehaves
// — and a crash-and-recover schedule (the dead primary restarts
// mid-measurement) must keep the compressed p95 at or below the static one:
// the restarted party serves out its penalty window and rejoins the rotation
// without handing the stall back. Deterministic: virtual time, fixed seed.
func runLatency(seed int64, quick bool) error {
	measure := 10 * time.Second
	if quick {
		measure = 5 * time.Second
	}
	base := harness.Config{
		Mode: core.ModeBaseline, N: 9, TxPerProposal: 30,
		Warmup: 2 * time.Second, Measure: measure, Seed: seed,
		// The default 32-round fence was tuned for membership changes; at
		// the stalled static cadence it is ~10 simulated seconds, which
		// would push every schedule change past the end of the run. Both
		// configurations share a short fence (multi-anchor ordering takes
		// no less than 6 at n=9) so the comparison isolates the schedule.
		Params: core.Params{RoundTimeout: 1200 * time.Millisecond, ReconfigDelay: 8},
		Faults: &faults.Schedule{Seed: seed, Events: []faults.Event{
			// Crash before the measurement window opens: the static run
			// measures the steady dead-primary cadence, the compressed run
			// measures the schedule after the offense evidence commits.
			{At: 500 * time.Millisecond, Kind: faults.KindCrash, Node: 3},
		}},
	}
	compress := func(c harness.Config) harness.Config {
		c.LeaderReputation = true
		c.ReputationWindow = 256
		return c
	}

	clean := base
	clean.Faults = nil

	recover := base
	recover.Faults = &faults.Schedule{Seed: seed, Events: []faults.Event{
		{At: 500 * time.Millisecond, Kind: faults.KindCrash, Node: 3},
		{At: 2*time.Second + measure/2, Kind: faults.KindRestart, Node: 3},
	}}

	fmt.Printf("Latency compression — n=%d, every member an anchor, crashed member 3 (seed %d)\n",
		base.N, seed)
	fmt.Printf("  %-34s %10s %10s %10s %10s %9s\n",
		"scenario / schedule", "p50", "p95", "commits", "tps", "offenses")
	row := func(name string, r harness.Result) {
		fmt.Printf("  %-34s %10s %10s %10d %10.0f %9d\n",
			name, r.CommitP50.Round(time.Millisecond), r.CommitP95.Round(time.Millisecond),
			len(r.Order), r.TPS, r.ReputationOffenses)
	}
	rs := harness.Run(base)
	row("crash / static round-robin", rs)
	rc := harness.Run(compress(base))
	row("crash / reputation", rc)
	cs := harness.Run(clean)
	row("clean / static round-robin", cs)
	cc := harness.Run(compress(clean))
	row("clean / reputation", cc)
	vs := harness.Run(recover)
	row("crash+recover / static", vs)
	vc := harness.Run(compress(recover))
	row("crash+recover / reputation", vc)

	if rs.CommitP50 <= 0 || rc.CommitP50 <= 0 {
		return fmt.Errorf("latency: empty commit_latency histogram (static p50 %v, compressed p50 %v)",
			rs.CommitP50, rc.CommitP50)
	}
	if rc.ReputationOffenses == 0 {
		return fmt.Errorf("latency: no committed offense evidence; the schedule never engaged")
	}
	// Two claims need the full window; -quick prints them ungated. In 5 s the
	// compressed schedule has less time to pull ahead (+14 %), and PR 22's
	// crash+recover p95 already read 0.9–3.2 % above static on 8 of seeds 1–10.
	gain := float64(len(rc.Order))/float64(len(rs.Order)) - 1
	gated := ""
	if quick {
		gated = ", gated at full length only"
	}
	fmt.Printf("  vertices ordered under crash: static %d, compressed %d: +%.0f%% (claim: >= +25%%%s)\n",
		len(rs.Order), len(rc.Order), gain*100, gated)
	fmt.Printf("  commit p95 under crash: static %v, compressed %v (claim: compressed lower)\n",
		rs.CommitP95.Round(time.Millisecond), rc.CommitP95.Round(time.Millisecond))
	fmt.Printf("  clean-run commits: static %d, compressed %d (claim: parity within 10%%)\n",
		len(cs.Order), len(cc.Order))
	fmt.Printf("  crash+recover p95: static %v, compressed %v (claim: compressed not higher%s)\n\n",
		vs.CommitP95.Round(time.Millisecond), vc.CommitP95.Round(time.Millisecond), gated)
	if gain < 0.25 && !quick {
		return fmt.Errorf("latency: compressed ordered %d vertices vs static %d — +%.0f%% < +25%%",
			len(rc.Order), len(rs.Order), gain*100)
	}
	if rc.CommitP95 >= rs.CommitP95 {
		return fmt.Errorf("latency: compressed p95 %v not below static %v", rc.CommitP95, rs.CommitP95)
	}
	if lo := float64(len(cs.Order)) * 0.9; float64(len(cc.Order)) < lo {
		return fmt.Errorf("latency: clean-run commit parity broken — compressed %d vs static %d (floor %.0f)",
			len(cc.Order), len(cs.Order), lo)
	}
	if vc.CommitP95 > vs.CommitP95 && !quick {
		return fmt.Errorf("latency: crash+recover compressed p95 %v above static %v",
			vc.CommitP95, vs.CommitP95)
	}
	return nil
}
