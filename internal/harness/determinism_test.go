package harness

import (
	"testing"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/types"
)

// TestCommitOrderDeterminism: the same seeded scenario run twice must
// commit a byte-identical sequence. Execution runs on each node's own
// goroutine, so this doubles as the proof that decoupling execution from
// the handler does not perturb the simulated schedule — the exec handoff
// takes no clock-dependent action. Both
// clan-confined dissemination modes are covered.
//
// The frame reader and sender-side coalescing are TCP-only machinery:
// the simulator never encodes messages (it bills bandwidth analytically via
// WireSize), so they cannot perturb this schedule by construction. What the
// harness does share with the real transport is the buffer pool, so each run
// is bracketed by a pool-leak check: every pooled buffer a run takes (WAL
// batches, encode scratch) must be returned by shutdown.
//
// Each mode runs on the default ordering path (every eligible member an
// anchor) and with LeadersPerRound pinned to 1, the paper-figure experiments'
// single leader, whose slots the commit rule decides with its one-round reach.
func TestCommitOrderDeterminism(t *testing.T) {
	type tcase struct {
		name string
		cfg  Config
	}
	var cases []tcase
	for _, leaders := range []int{0, 1} {
		suffix := ""
		if leaders == 1 {
			suffix = "/single-leader"
		}
		cases = append(cases,
			tcase{"single-clan" + suffix, Config{
				Mode: core.ModeSingleClan, N: 12, TxPerProposal: 50, LeadersPerRound: leaders,
				Warmup: 2 * time.Second, Measure: 4 * time.Second, Seed: 9,
			}},
			tcase{"multi-clan" + suffix, Config{
				Mode: core.ModeMultiClan, N: 12, NumClans: 2, TxPerProposal: 50, LeadersPerRound: leaders,
				Warmup: 2 * time.Second, Measure: 4 * time.Second, Seed: 9,
			}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pc := types.StartPoolCheck()
			a, b := Run(tc.cfg), Run(tc.cfg)
			pc.AssertBalanced(t)
			if len(a.Order) == 0 {
				t.Fatal("run committed nothing")
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
			t.Logf("%s: %d commits reproduced identically", tc.name, len(a.Order))
		})
	}
}
