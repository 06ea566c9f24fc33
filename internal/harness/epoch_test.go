package harness

import (
	"testing"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/types"
)

// TestEpochFenceDeterminism: two runs of the same seeded scenario with an
// identical reconfig schedule (one join, one leave) must produce a
// byte-identical commit order across the fence AND identical post-fence
// epoch tables — same fence rounds, same membership, same re-sampled clan
// assignments. Reconfiguration is ordered state-machine input, so it
// inherits the determinism of the order itself. Covered on the default
// ordering path (every eligible member an anchor) and once more with
// LeadersPerRound pinned to 1, which covers the commit rule's one-round reach.
func TestEpochFenceDeterminism(t *testing.T) {
	members := []types.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, tc := range []struct {
		name    string
		leaders int
	}{{"dense", 0}, {"dense/single-leader", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Mode: core.ModeMultiClan, N: 12, NumClans: 2, TxPerProposal: 20,
				Warmup: 2 * time.Second, Measure: 5 * time.Second, Seed: 33,
				LeadersPerRound: tc.leaders,
				Params:          core.Params{Members: members, ReconfigDelay: 8},
				Reconfigs: []Reconfig{
					{At: 1 * time.Second, Action: types.ReconfigJoin, Node: 10, Addr: "sim://10"},
					{At: 3 * time.Second, Action: types.ReconfigLeave, Node: 9},
				},
			}
			pc := types.StartPoolCheck()
			a, b := Run(cfg), Run(cfg)
			pc.AssertBalanced(t)

			if len(a.Order) == 0 {
				t.Fatal("run committed nothing")
			}
			if len(a.Order) != len(b.Order) {
				t.Fatalf("commit counts diverged: %d vs %d", len(a.Order), len(b.Order))
			}
			for i := range a.Order {
				if a.Order[i] != b.Order[i] {
					t.Fatalf("commit order diverged at %d: %v vs %v", i, a.Order[i], b.Order[i])
				}
			}
			// Both membership changes must have fenced within the run.
			last := a.Epochs[len(a.Epochs)-1]
			if last.Epoch < 2 {
				t.Fatalf("run ended in epoch %d, want >= 2 (join and leave fences)", last.Epoch)
			}
			if len(a.Epochs) != len(b.Epochs) {
				t.Fatalf("epoch tables diverged: %d vs %d entries", len(a.Epochs), len(b.Epochs))
			}
			for i := range a.Epochs {
				ea, eb := a.Epochs[i], b.Epochs[i]
				if ea.Epoch != eb.Epoch || ea.StartRound != eb.StartRound {
					t.Fatalf("epoch %d fence diverged: (%d,%d) vs (%d,%d)",
						i, ea.Epoch, ea.StartRound, eb.Epoch, eb.StartRound)
				}
				if len(ea.Members) != len(eb.Members) {
					t.Fatalf("epoch %d membership diverged", ea.Epoch)
				}
				for j := range ea.Members {
					if ea.Members[j] != eb.Members[j] {
						t.Fatalf("epoch %d member %d diverged: %d vs %d",
							ea.Epoch, j, ea.Members[j], eb.Members[j])
					}
				}
				if len(ea.Clans) != len(eb.Clans) {
					t.Fatalf("epoch %d clan count diverged", ea.Epoch)
				}
				for ci := range ea.Clans {
					if len(ea.Clans[ci]) != len(eb.Clans[ci]) {
						t.Fatalf("epoch %d clan %d size diverged", ea.Epoch, ci)
					}
					for j := range ea.Clans[ci] {
						if ea.Clans[ci][j] != eb.Clans[ci][j] {
							t.Fatalf("epoch %d clan %d diverged: %v vs %v",
								ea.Epoch, ci, ea.Clans[ci], eb.Clans[ci])
						}
					}
				}
			}
			// The epoch table is itself ordered-state: the final membership
			// reflects both changes (10 joined, 9 left).
			wantMembers := len(members) + 1 - 1
			if got := len(last.Members); got != wantMembers {
				t.Fatalf("final membership %d, want %d", got, wantMembers)
			}
			t.Logf("%s: %d commits, %d epochs reproduced identically (final fence r%d)",
				tc.name, len(a.Order), len(a.Epochs), last.StartRound)
		})
	}
}
