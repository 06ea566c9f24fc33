package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/faults"
	"clanbft/internal/harness"
	"clanbft/internal/types"
)

// scenario is the configuration every chaos test starts from: the harness's
// own deployment (the Table 1 matrix over even regions, modelled costs) at
// n=7 with three transactions per proposal and a 700 ms round timeout,
// driving sched. Warmup ends 1.5 s after the schedule's last event, and
// Measure is the 4.5 s window over which every node's order must grow.
func scenario(seed int64, mode core.Mode, sched *faults.Schedule) harness.Config {
	var last time.Duration
	for _, ev := range sched.Events {
		last = max(last, ev.At)
	}
	return harness.Config{
		Mode: mode, N: 7, Seed: seed, TxPerProposal: 3,
		Params:  core.Params{RoundTimeout: 700 * time.Millisecond},
		Warmup:  last + 1500*time.Millisecond,
		Measure: 4500 * time.Millisecond,
		Faults:  sched,
	}
}

// run runs cfg and fails t on every violation Check reports.
func run(t *testing.T, cfg harness.Config) harness.Result {
	t.Helper()
	r := harness.Run(cfg)
	if v := Check(r); v != nil {
		dumpFailure(t, cfg, r, v)
	}
	return r
}

// dumpFailure prints the reproduction seed and event trace, and uploads the
// trace as a CI artifact when CHAOS_TRACE_DIR is set (the cron chaos job
// collects that directory on failure).
func dumpFailure(t *testing.T, cfg harness.Config, r harness.Result, violations []string) {
	t.Helper()
	t.Errorf("chaos violation (reproduce with seed=%d mode=%s):\n%s\ntrace:\n%s",
		cfg.Seed, cfg.Mode, violations, r.FaultTrace)
	if dir := os.Getenv("CHAOS_TRACE_DIR"); dir != "" {
		os.MkdirAll(dir, 0o755)
		name := filepath.Join(dir, fmt.Sprintf("chaos-seed%d-%s.trace", cfg.Seed, cfg.Mode))
		os.WriteFile(name, []byte(r.FaultTrace), 0o644)
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
// pins LeadersPerRound to 1 so the commit rule's one-round reach, which only
// a single anchor a round takes, stays covered.
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
					sched := GenSchedule(seed, 7, 2)
					cfg := scenario(seed, mode, &sched)
					cfg.LeadersPerRound = leaders
					run(t, cfg)
					pc.AssertBalanced(t)
				})
			}
		}
	}
}

// TestChaosPaperScale runs one generated schedule at the paper's scale: n=50
// over the Table 1 regions, one clan of the paper's size, up to f=16
// crash/restart cycles.
func TestChaosPaperScale(t *testing.T) {
	seed := chaosSeedBase(t)
	sched := GenSchedule(seed, 50, 16)
	cfg := scenario(seed, core.ModeSingleClan, &sched)
	cfg.N, cfg.ClanSize = 50, harness.PaperClanSize(50)
	run(t, cfg)
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
			cfg := scenario(7, core.ModeBaseline, scriptedCrashSchedule(tc.torn))
			cfg.CheckSigs = tc.sigs
			r := run(t, cfg)
			// The restarted node must actually participate post-heal, not
			// merely replay its old prefix.
			if nd := r.Nodes[3]; len(nd.Order) <= nd.OrderedAtWarmup {
				t.Fatalf("recovered node made no progress: %d -> %d", nd.OrderedAtWarmup, len(nd.Order))
			}
		})
	}
}

// TestChaosDetectsSkippedRecovery is the control for the scripted scenario:
// restarting from an emptied WAL (exactly what the pre-fault-layer code did —
// crash tests never re-started nodes, and a node rebuilt without store
// recovery forgets its write-ahead proposal records) must trip the
// equivocation tap. This proves the scripted test fails when recovery is
// skipped.
func TestChaosDetectsSkippedRecovery(t *testing.T) {
	violations := Check(harness.Run(scenario(7, core.ModeBaseline, scriptedCrashSchedule(faults.TornAll))))
	if !slices.ContainsFunc(violations, func(v string) bool { return strings.HasPrefix(v, "equivocation") }) {
		t.Fatalf("skipped recovery went undetected: expected an equivocation violation, got %v", violations)
	}
}

// TestChaosTornLastRecordSurvivorsStaySafe destroys the last ACKNOWLEDGED
// record of the crashed node's WAL — beyond the durability contract. The
// recovered node may have lost its newest write-ahead proposal record and is
// excused from the equivocation check; the survivors must stay prefix
// consistent and live regardless.
func TestChaosTornLastRecordSurvivorsStaySafe(t *testing.T) {
	cfg := scenario(7, core.ModeBaseline, scriptedCrashSchedule(faults.TornLastRecord))
	r := harness.Run(cfg)
	violations := slices.DeleteFunc(Check(r), func(v string) bool {
		return strings.HasPrefix(v, "equivocation: node 3 ")
	})
	if violations != nil {
		dumpFailure(t, cfg, r, violations)
	}
}

// TestChaosTraceDeterminism is the reproducibility contract: identical seed
// and schedule produce byte-identical event traces, per-node orders and drop
// counts, so a CI failure replays exactly from the printed seed. The run must
// also make progress and the schedule must bite (messages dropped).
func TestChaosTraceDeterminism(t *testing.T) {
	sched := GenSchedule(5, 7, 2)
	cfg := scenario(5, core.ModeMultiClan, &sched)
	a, b := run(t, cfg), harness.Run(cfg)
	if a.FaultTrace != b.FaultTrace {
		t.Fatalf("traces diverged across identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.FaultTrace, b.FaultTrace)
	}
	if a.FaultTrace == "" {
		t.Fatal("empty trace")
	}
	for i := range a.Nodes {
		if !slices.Equal(a.Nodes[i].Order, b.Nodes[i].Order) {
			t.Fatalf("node %d's order diverged: %d vs %d positions", i, len(a.Nodes[i].Order), len(b.Nodes[i].Order))
		}
	}
	if a.FaultsDropped != b.FaultsDropped {
		t.Fatalf("drop counts diverged: %d vs %d", a.FaultsDropped, b.FaultsDropped)
	}
	if a.FaultsDropped == 0 {
		t.Fatal("schedule did not bite: zero messages dropped")
	}
	if a.TPS <= 0 || a.Rounds < 5 {
		t.Fatalf("no progress under faults: tps=%.0f rounds=%d", a.TPS, a.Rounds)
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
// with LeadersPerRound pinned to 1 (the one-round reach), under the identical
// schedule.
func TestChaosMembershipChurn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		leaders int
	}{{"dense", 0}, {"dense/single-leader", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			pc := types.StartPoolCheck()
			cfg := scenario(41, core.ModeBaseline, churnSchedule())
			cfg.N = 8
			cfg.LeadersPerRound = tc.leaders
			cfg.Members = []types.NodeID{0, 1, 2, 3, 4, 5, 6}
			cfg.ReconfigDelay = 12
			cfg.Reconfigs = []harness.Reconfig{
				{At: 800 * time.Millisecond, Action: types.ReconfigJoin, Node: 7, Addr: "sim://7"},
				{At: 2500 * time.Millisecond, Action: types.ReconfigLeave, Node: 6},
			}
			r := run(t, cfg)
			pc.AssertBalanced(t)
			for i, nd := range r.Nodes {
				if nd.Epoch < 2 {
					t.Fatalf("node %d finished in epoch %d, want >= 2 (join and leave fences)", i, nd.Epoch)
				}
			}
			// The joiner must be an active participant, not a spectator:
			// post-heal it orders new vertices like everyone else (Check's
			// liveness property already asserts strict progress; this pins
			// it to the joined node explicitly).
			if nd := r.Nodes[7]; len(nd.Order) <= nd.OrderedAtWarmup {
				t.Fatalf("joined node made no post-heal progress: %d -> %d", nd.OrderedAtWarmup, len(nd.Order))
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
// round, and with the single leader pinned (the one-round reach).
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
	runRep := func(rep bool) harness.Result {
		cfg := scenario(42, core.ModeBaseline, reputationSchedule())
		cfg.N = 5
		cfg.LeadersPerRound = leaders
		cfg.LeaderReputation = rep
		// Short evidence->apply distance so demotion engages within the
		// crash window (the default 32-round gap is tuned for epoch
		// fences, not a short scenario): the least each ordering path
		// takes at n=5 (core.Config.ReconfigDelay).
		cfg.ReconfigDelay = delay
		// With the crashed leaders demoted the survivors run at full
		// speed, so by the restart they are far past the harness's
		// 16-round retention; keep everything so the victims' vertex
		// pulls can catch them back up.
		cfg.GCDepth = 4096
		return run(t, cfg)
	}
	static := runRep(false).Nodes[0]
	reput := runRep(true).Nodes[0]
	if static.Offenses != 0 {
		t.Fatalf("reputation off but node 0 recorded %d offenses", static.Offenses)
	}
	if reput.Offenses == 0 {
		t.Fatal("reputation on but no committed timeout evidence was folded into the schedule")
	}
	if static.Timeouts == 0 {
		t.Fatal("control run saw no leader timeouts; schedule is not exercising the rotation")
	}
	if reput.Timeouts >= static.Timeouts {
		t.Fatalf("reputation did not reduce leader timeouts: static=%d reputation=%d",
			static.Timeouts, reput.Timeouts)
	}
}

// TestChaosBlockPulledPastHorizon holds one vertex's block away from one
// member of its clan for longer than GCDepth rounds, in every mode. Node 0 is
// an observer: it holds every vertex and no block, so the victim's first pull
// of P's vertex, which goes to node 0, brings the vertex alone. The victim's
// copies of P's VAL and of every pull reply that carries P's block are delayed
// by a second. So the victim orders P, executes nothing past it, and orders on
// more than GCDepth rounds ahead while P's block is still being pulled. The
// horizon must not pass P before P is emitted: that would retire P's RBC
// instance with the block pull in it, the block never reaches the store, and
// the victim's execution halts for good — the liveness property's violation.
// On the Table 1 matrix round 20 lands at about 4 s, so Warmup ends at 6 s.
func TestChaosBlockPulledPastHorizon(t *testing.T) {
	const victim = types.NodeID(3)
	late := types.Position{Round: 20, Source: 2}
	carriesBlock := func(m types.Message) bool {
		switch msg := m.(type) {
		case *types.ValMsg:
			return msg.Vertex.Pos() == late
		case *types.VtxRspMsg:
			return msg.Block != nil && msg.Vertex.Pos() == late
		}
		return false
	}
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeSingleClan, core.ModeMultiClan} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := scenario(3, mode, &faults.Schedule{Seed: 3, Events: []faults.Event{
				{Kind: faults.KindDelay, From: faults.All, To: victim, Delay: time.Second, Match: carriesBlock},
			}})
			cfg.N = 8
			cfg.Members = []types.NodeID{1, 2, 3, 4, 5, 6, 7}
			cfg.GCDepth = 4
			cfg.Warmup = 6 * time.Second
			r := run(t, cfg)
			// The victim must want P's block: in a clan mode it shares P's
			// source's clan.
			for _, clan := range r.Epochs[0].Clans {
				if slices.Contains(clan, late.Source) && !slices.Contains(clan, victim) {
					t.Fatalf("victim %d is outside the clan of %v: %v", victim, late, r.Epochs[0].Clans)
				}
			}
		})
	}
}
