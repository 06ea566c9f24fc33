package harness

import (
	"testing"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/faults"
	"clanbft/internal/types"
)

// TestReputationScheduleDeterminism: the reputation-driven leader schedule
// is derived purely from committed evidence, so two runs of the same seeded
// scenario — multi-leader, a crashed-then-restarted party generating timeout
// certificates, and a membership fence mid-run — must commit byte-identical
// sequences. This is the harness-level face of the schedule-determinism
// contract: demotions, re-admissions, the mid-stream re-tally a recovering
// node performs, and the epoch-fence reputation reset all replay exactly.
// Covered in both the dense and sparse edge modes with two anchors a round,
// and dense on the default (every eligible member an anchor, so a demotion
// changes the slot count of a round, not only who fills the slots) and with
// LeadersPerRound pinned to 1.
func TestReputationScheduleDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sparse  bool
		leaders int
	}{{"dense", false, 2}, {"sparse", true, 2}, {"dense/all-anchors", false, 0}, {"dense/single-leader", false, 1}} {
		name, sparse := tc.name, tc.sparse
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Mode: core.ModeSingleClan, N: 12, TxPerProposal: 30,
				Warmup: 2 * time.Second, Measure: 5 * time.Second, Seed: 29,
				RoundTimeout:     700 * time.Millisecond,
				SparseEdges:      sparse,
				LeadersPerRound:  tc.leaders,
				LeaderReputation: true,
				ReputationWindow: 24,
				Members:          []types.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
				ReconfigDelay:    8,
				Reconfigs: []Reconfig{
					// A join fences a new epoch mid-run: reputation events
					// reset at the fence and the rotation re-derives over
					// the widened member set.
					{At: 3 * time.Second, Action: types.ReconfigJoin, Node: 11, Addr: "sim://11"},
				},
				Faults: &faults.Schedule{Seed: 29, Events: []faults.Event{
					// Node 4 takes its turn as primary; crashing it
					// forces timeouts whose certificates become the
					// committed offense evidence, and the restart exercises
					// catch-up under a schedule that moved while it was
					// down.
					{At: 1 * time.Second, Kind: faults.KindCrash, Node: 4},
					{At: 4 * time.Second, Kind: faults.KindRestart, Node: 4},
				}},
			}
			pc := types.StartPoolCheck()
			a, b := Run(cfg), Run(cfg)
			pc.AssertBalanced(t)

			if len(a.Order) == 0 {
				t.Fatal("run committed nothing")
			}
			if a.ReputationOffenses == 0 {
				t.Fatal("no committed offense evidence: the schedule never engaged")
			}
			if len(a.Order) != len(b.Order) {
				t.Fatalf("commit counts diverged: %d vs %d", len(a.Order), len(b.Order))
			}
			for i := range a.Order {
				if a.Order[i] != b.Order[i] {
					t.Fatalf("commit order diverged at %d: %v vs %v",
						i, a.Order[i], b.Order[i])
				}
			}
			if a.OrderedTxs != b.OrderedTxs {
				t.Fatalf("tx counts diverged: %d vs %d", a.OrderedTxs, b.OrderedTxs)
			}
			if a.FaultTrace != b.FaultTrace {
				t.Fatalf("fault traces diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
					a.FaultTrace, b.FaultTrace)
			}
			if a.ReputationOffenses != b.ReputationOffenses {
				t.Fatalf("offense counts diverged: %d vs %d",
					a.ReputationOffenses, b.ReputationOffenses)
			}
			t.Logf("%s: %d commits, %d offenses reproduced identically",
				name, len(a.Order), a.ReputationOffenses)
		})
	}
}
