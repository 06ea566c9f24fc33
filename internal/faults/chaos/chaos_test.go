package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/faults"
	"clanbft/internal/types"
)

// dumpFailure prints the reproduction seed and event trace, and uploads the
// trace as a CI artifact when CHAOS_TRACE_DIR is set (the cron chaos job
// collects that directory on failure).
func dumpFailure(t *testing.T, r Result) {
	t.Helper()
	t.Errorf("chaos violation (reproduce with seed=%d mode=%s):\n%s\ntrace:\n%s",
		r.Seed, r.Mode, r.Violations, r.Trace)
	if dir := os.Getenv("CHAOS_TRACE_DIR"); dir != "" {
		os.MkdirAll(dir, 0o755)
		name := filepath.Join(dir, fmt.Sprintf("chaos-seed%d-%s.trace", r.Seed, r.Mode))
		os.WriteFile(name, []byte(r.Trace), 0o644)
	}
}

// chaosSeedBase returns the first seed of the sweep. The scheduled CI job
// randomizes it via CHAOS_SEED_BASE to explore fresh schedules every night;
// the per-PR job leaves it fixed so failures bisect cleanly.
func chaosSeedBase(t *testing.T) int64 {
	if s := os.Getenv("CHAOS_SEED_BASE"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED_BASE %q: %v", s, err)
		}
		return v
	}
	return 1
}

// TestChaosMixedFaults sweeps seeded mixed-fault scenarios — drops,
// duplicates, reorder delays, a partition with heal, and up to f
// crash/restart cycles with torn WAL tails — over single-clan and multi-clan
// modes, asserting safety and post-heal liveness for every seed. The sweep
// runs the default ordering path, every eligible member an anchor: seed 10 in
// single-clan mode is the schedule on which PR 10's skip threshold let two
// partitioned nodes skip a slot the others committed by path. A shorter sweep
// pins LeadersPerRound to 1 so the single-leader chain walk stays covered.
func TestChaosMixedFaults(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 2
	}
	base := chaosSeedBase(t)
	for _, leaders := range []int{0, 1} {
		prefix := ""
		if leaders == 1 {
			prefix, seeds = "single-leader/", min(seeds, 3)
		}
		for _, mode := range []core.Mode{core.ModeSingleClan, core.ModeMultiClan} {
			for s := int64(0); s < int64(seeds); s++ {
				seed := base + s
				t.Run(fmt.Sprintf("%s%s/seed=%d", prefix, mode, seed), func(t *testing.T) {
					// Crashes, restarts, and torn WAL tails exercise every
					// buffer-release path (dropped frames, aborted batches); the
					// pool must still balance once the run shuts down.
					pc := types.StartPoolCheck()
					r := Run(Options{Seed: seed, Mode: mode, Dir: t.TempDir(), LeadersPerRound: leaders})
					if r.Failed() {
						dumpFailure(t, r)
					}
					pc.AssertBalanced(t)
				})
			}
		}
	}
}

// scriptedCrashSchedule is the scripted crash → WAL-tail-damage → restart
// scenario: node 3 dies mid-run, its WAL gains a torn unacknowledged record,
// and it must recover, rejoin, catch the DAG up, and never double-commit.
func scriptedCrashSchedule(torn int) *faults.Schedule {
	return &faults.Schedule{Seed: 7, Events: []faults.Event{
		{At: 3 * time.Second, Kind: faults.KindCrash, Node: 3},
		{At: 5 * time.Second, Kind: faults.KindRestart, Node: 3, Torn: torn},
	}}
}

// TestChaosScriptedCrashRecovery runs the scripted scenario and asserts
// clean recovery across every torn-tail mode inside the durability contract.
// The flagship torn-append variant runs with real signature checking; the
// others use modeled crypto to keep the -race CI job inside its timeout.
func TestChaosScriptedCrashRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		torn int
		sigs bool
	}{
		{"clean", faults.TornNone, false},
		{"torn-append", faults.TornAppend, true},
		{"torn-boundary", faults.TornLastBoundary, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := Run(Options{
				Seed:      7,
				Dir:       t.TempDir(),
				Schedule:  scriptedCrashSchedule(tc.torn),
				CheckSigs: tc.sigs,
			})
			if r.Failed() {
				dumpFailure(t, r)
			}
			// The restarted node must actually participate post-heal, not
			// merely replay its old prefix.
			if r.OrderedAtEnd[3] <= r.OrderedAtCheck[3] {
				t.Fatalf("recovered node made no progress: %v -> %v", r.OrderedAtCheck, r.OrderedAtEnd)
			}
		})
	}
}

// TestChaosDetectsSkippedRecovery is the control for the scripted scenario:
// restarting from a wiped store (exactly what the pre-fault-layer code did —
// crash tests never re-started nodes, and a node rebuilt without store
// recovery forgets its write-ahead proposal records) must trip the
// equivocation monitor. This proves the scripted test fails when recovery is
// skipped.
func TestChaosDetectsSkippedRecovery(t *testing.T) {
	r := Run(Options{
		Seed:                7,
		Dir:                 t.TempDir(),
		Schedule:            scriptedCrashSchedule(faults.TornNone),
		FreshStoreOnRestart: true,
	})
	if !r.Failed() {
		t.Fatal("skipped recovery went undetected: no violation reported")
	}
	found := false
	for _, v := range r.Violations {
		if len(v) >= 12 && v[:12] == "equivocation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an equivocation violation, got %v", r.Violations)
	}
}

// TestChaosTornLastRecordSurvivorsStaySafe destroys the last ACKNOWLEDGED
// record of the crashed node's WAL — beyond the durability contract. The
// recovered node may have lost its newest write-ahead proposal record and is
// excused from the equivocation monitor; the survivors must stay prefix
// consistent and live regardless.
func TestChaosTornLastRecordSurvivorsStaySafe(t *testing.T) {
	r := Run(Options{
		Seed:              7,
		Dir:               t.TempDir(),
		Schedule:          scriptedCrashSchedule(faults.TornLastRecord),
		AllowEquivocation: map[types.NodeID]bool{3: true},
	})
	if r.Failed() {
		dumpFailure(t, r)
	}
}

// TestChaosTraceDeterminism is the reproducibility contract: identical seed
// and schedule produce byte-identical event traces, so a CI failure replays
// exactly from the printed seed.
func TestChaosTraceDeterminism(t *testing.T) {
	run := func() Result {
		return Run(Options{Seed: 5, Mode: core.ModeMultiClan, Dir: t.TempDir()})
	}
	a, b := run(), run()
	if a.Trace != b.Trace {
		t.Fatalf("traces diverged across identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.Trace, b.Trace)
	}
	if a.Trace == "" {
		t.Fatal("empty trace")
	}
}

// churnSchedule is the fixed membership-churn fault script: a lossy link,
// one crash/restart cycle with a torn WAL tail landing between the two
// fences, a partition opened after the leave commits, and a heal. Paired
// with the join/leave reconfigs in TestChaosMembershipChurn it exercises
// epoch recovery from the WAL (the crashed node restarts across a fence)
// and fence agreement under partitions.
func churnSchedule() *faults.Schedule {
	return &faults.Schedule{Seed: 41, Events: []faults.Event{
		{At: 1200 * time.Millisecond, Kind: faults.KindDrop, From: 1, To: 3, P: 0.25},
		{At: 2 * time.Second, Kind: faults.KindCrash, Node: 2},
		{At: 3500 * time.Millisecond, Kind: faults.KindPartition, Name: "split",
			Groups: [][]types.NodeID{{0, 1, 2, 7}, {3, 4, 5, 6}}},
		{At: 4 * time.Second, Kind: faults.KindRestart, Node: 2, Torn: faults.TornAppend},
		{At: 7 * time.Second, Kind: faults.KindHeal},
	}}
}

// TestChaosMembershipChurn is the epoch-reconfiguration chaos property:
// a join and a leave commit and fence while the cluster is being dropped,
// partitioned, and crash/restarted. All incarnations must stay prefix
// consistent across both fences (no fork), every node — the joiner
// included — must make post-heal progress, and every node must finish in
// the final epoch. Covered on the default (every eligible member an anchor:
// the slot count of a round follows the membership across each fence) and
// with LeadersPerRound pinned to 1, under the identical schedule.
func TestChaosMembershipChurn(t *testing.T) {
	members := []types.NodeID{0, 1, 2, 3, 4, 5, 6}
	for _, tc := range []struct {
		name    string
		leaders int
	}{{"dense", 0}, {"dense/single-leader", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			pc := types.StartPoolCheck()
			r := Run(Options{
				Seed:            41,
				N:               8,
				Dir:             t.TempDir(),
				Schedule:        churnSchedule(),
				LeadersPerRound: tc.leaders,
				Members:         members,
				ReconfigDelay:   12,
				Reconfigs: []Reconfig{
					{At: 800 * time.Millisecond, Action: types.ReconfigJoin, Node: 7, Addr: "sim://7"},
					{At: 2500 * time.Millisecond, Action: types.ReconfigLeave, Node: 6},
				},
			})
			if r.Failed() {
				dumpFailure(t, r)
			}
			pc.AssertBalanced(t)
			for i, e := range r.EpochAtEnd {
				if e < 2 {
					t.Fatalf("node %d finished in epoch %d, want >= 2 (join and leave fences): %v",
						i, e, r.EpochAtEnd)
				}
			}
			// The joiner must be an active participant, not a spectator:
			// post-heal it orders new vertices like everyone else (the
			// runner's liveness check already asserts strict progress; this
			// pins it to the joined node explicitly).
			if r.OrderedAtEnd[7] <= r.OrderedAtCheck[7] {
				t.Fatalf("joined node made no post-heal progress: %v -> %v",
					r.OrderedAtCheck, r.OrderedAtEnd)
			}
		})
	}
}

// reputationSchedule crashes one of the five parties for a three-second
// stretch. The primary slot (r mod 5) visits every party once per five
// rounds, so with the static schedule every rotation pass costs a 700ms
// leader timeout until the restart. The window is kept
// short: the simulated cluster catches restarted nodes up through per-round
// vertex pulls (one RTT per DAG level), so the healthy majority must not
// get more than a few seconds ahead.
func reputationSchedule() *faults.Schedule {
	return &faults.Schedule{Seed: 42, Events: []faults.Event{
		{At: 1 * time.Second, Kind: faults.KindCrash, Node: 3},
		{At: 4 * time.Second, Kind: faults.KindRestart, Node: 3, Torn: faults.TornNone},
	}}
}

// TestChaosMultiLeaderReputation runs the identical seeded crash schedule
// with the reputation-driven leader schedule off and on. Both runs must
// uphold every safety and liveness property; the reputation run must commit
// timeout evidence (offenses observed at the never-crashed node 0) and pay
// strictly fewer leader-timeout rounds — after the first committed timeout
// certificate the crashed leaders are demoted out of the rotation instead of
// stalling every pass. Run with every eligible member an anchor (the
// default: the demotion shrinks the round's slot count), with two anchors a
// round, and with the single leader pinned.
func TestChaosMultiLeaderReputation(t *testing.T) {
	for _, leaders := range []int{0, 2, 1} {
		t.Run(fmt.Sprintf("L=%d", leaders), func(t *testing.T) {
			testChaosReputation(t, leaders)
		})
	}
}

func testChaosReputation(t *testing.T, leaders int) {
	delay := types.Round(4)
	if leaders == 1 {
		delay = 2
	}
	run := func(rep bool) Result {
		return Run(Options{
			Seed:             42,
			N:                5,
			Dir:              t.TempDir(),
			Schedule:         reputationSchedule(),
			LeadersPerRound:  leaders,
			LeaderReputation: rep,
			// Short evidence->apply distance so demotion engages within the
			// crash window (the default 32-round gap is tuned for epoch
			// fences, not an 11-second scenario): the least each ordering
			// path takes at n=5 (core.Config.ReconfigDelay).
			ReconfigDelay: delay,
			// With the crashed leaders demoted the survivors run at full
			// speed, so by the restart they are far past the default
			// 64-round retention; keep everything so the victims' vertex
			// pulls can catch them back up.
			GCDepth: 4096,
		})
	}
	static := run(false)
	reput := run(true)
	if static.Failed() {
		dumpFailure(t, static)
	}
	if reput.Failed() {
		dumpFailure(t, reput)
	}
	if static.Offenses[0] != 0 {
		t.Fatalf("reputation off but node 0 recorded %d offenses", static.Offenses[0])
	}
	if reput.Offenses[0] == 0 {
		t.Fatal("reputation on but no committed timeout evidence was folded into the schedule")
	}
	if static.Timeouts[0] == 0 {
		t.Fatalf("control run saw no leader timeouts; schedule is not exercising the rotation (timeouts=%v)", static.Timeouts)
	}
	if reput.Timeouts[0] >= static.Timeouts[0] {
		t.Fatalf("reputation did not reduce leader timeouts: static=%d reputation=%d (per-node static=%v reputation=%v)",
			static.Timeouts[0], reput.Timeouts[0], static.Timeouts, reput.Timeouts)
	}
}
