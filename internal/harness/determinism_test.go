package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
//
// Each case also pins a hash of node 0's order: a change that claims to leave
// the simulated schedule alone must leave these hashes alone, and one that
// moves it re-records them.
func TestCommitOrderDeterminism(t *testing.T) {
	type tcase struct {
		name string
		cfg  Config
	}
	pinned := map[string]string{
		"single-clan":               "f3aa0fab51b9191a",
		"multi-clan":                "931ff61d864d1e0a",
		"single-clan/single-leader": "b63cbcdbf3703233",
		"multi-clan/single-leader":  "c0a1fa61d3b2c4f4",
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
			if got := orderHash(a.Order); got != pinned[tc.name] {
				t.Errorf("order hash %s, pinned %s", got, pinned[tc.name])
			}
			t.Logf("%s: %d commits reproduced identically", tc.name, len(a.Order))
		})
	}
}

// orderHash is the first 16 hex digits of the SHA-256 of an order's
// positions, each as round then source, big-endian.
func orderHash(order []types.Position) string {
	h := sha256.New()
	var b [12]byte
	for _, p := range order {
		binary.BigEndian.PutUint64(b[:8], uint64(p.Round))
		binary.BigEndian.PutUint32(b[8:], uint32(p.Source))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
