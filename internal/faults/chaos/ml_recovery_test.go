package chaos

import (
	"testing"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/faults"
)

// TestMultiLeaderReputationCatchup crashes one of five parties for three
// seconds of a multi-leader run with the reputation schedule enabled, then
// lets it recover from its store and catch up against a cluster that kept
// committing at full speed. The window is long enough for two reputation
// events (the victim demoted, re-admitted at expiry, and demoted again), so
// the catch-up node must re-derive the leader table mid-stream from evidence
// it orders itself. This is the regression test for the catch-up ordering
// pipeline: ancestor batch streaming on pulls, certificate-relaxed vertex
// validation, the vote re-tally over seen (not just delivered) vertices, and
// the slot-fate gate that keeps slot anchoring independent of local vote
// arrival timing. Safety here means the recovered node's total order is
// position-for-position identical to the survivors'.
func TestMultiLeaderReputationCatchup(t *testing.T) {
	cfg := scenario(7, core.ModeBaseline, &faults.Schedule{Seed: 7, Events: []faults.Event{
		{At: 1 * time.Second, Kind: faults.KindCrash, Node: 3},
		{At: 4 * time.Second, Kind: faults.KindRestart, Node: 3},
	}})
	cfg.N, cfg.LeadersPerRound, cfg.ReconfigDelay, cfg.LeaderReputation, cfg.GCDepth = 5, 2, 4, true, 4096
	r := run(t, cfg)
	if r.Nodes[0].Offenses < 2 {
		t.Fatalf("expected at least two reputation events at node 0, got %d", r.Nodes[0].Offenses)
	}
}
