package harness

import (
	"testing"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/faults"
	"clanbft/internal/types"
)

// faultSchedule is a small mixed script: a lossy link during warmup, a node
// crash/restart cycle, and a partition that heals inside the measure window.
func faultSchedule() *faults.Schedule {
	return &faults.Schedule{Seed: 11, Events: []faults.Event{
		{At: 1 * time.Second, Kind: faults.KindDrop, From: 1, To: 2, P: 0.3},
		{At: 2 * time.Second, Kind: faults.KindCrash, Node: 3},
		{At: 3 * time.Second, Kind: faults.KindPartition, Name: "blip",
			Groups: [][]types.NodeID{{0, 1}, {4, 5}}},
		{At: 4 * time.Second, Kind: faults.KindRestart, Node: 3},
		{At: 5 * time.Second, Kind: faults.KindHeal},
	}}
}

// TestHarnessFaultRecovery runs an experiment with the fault layer active:
// node 3 crashes mid-warmup and restarts from its on-disk store. The run
// must still make progress after the heal, the schedule must actually bite
// (drops observed), and the trace must be populated for reproduction.
func TestHarnessFaultRecovery(t *testing.T) {
	r := Run(Config{
		Mode: core.ModeBaseline, N: 8, TxPerProposal: 50,
		Warmup: 3 * time.Second, Measure: 6 * time.Second, Seed: 4,
		Params: core.Params{RoundTimeout: 2 * time.Second},
		Faults: faultSchedule(),
	})
	t.Logf("faulty run: tps=%.0f rounds=%d dropped=%d\ntrace:\n%s",
		r.TPS, r.Rounds, r.FaultsDropped, r.FaultTrace)
	if r.TPS <= 0 || r.Rounds < 5 {
		t.Fatalf("no progress under faults: %+v", r)
	}
	if r.FaultsDropped == 0 {
		t.Fatal("schedule did not bite: zero messages dropped")
	}
	if r.FaultTrace == "" {
		t.Fatal("empty fault trace")
	}
}

// TestHarnessFaultTraceDeterminism: identical Config (including schedule)
// must reproduce the fault trace byte for byte — the harness-level face of
// the reproducibility contract.
func TestHarnessFaultTraceDeterminism(t *testing.T) {
	cfg := Config{
		Mode: core.ModeBaseline, N: 8, TxPerProposal: 50,
		Warmup: 3 * time.Second, Measure: 5 * time.Second, Seed: 4,
		Params: core.Params{RoundTimeout: 2 * time.Second},
		Faults: faultSchedule(),
	}
	a, b := Run(cfg), Run(cfg)
	if a.FaultTrace != b.FaultTrace {
		t.Fatalf("fault traces diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			a.FaultTrace, b.FaultTrace)
	}
	if a.OrderedTxs != b.OrderedTxs || a.FaultsDropped != b.FaultsDropped {
		t.Fatalf("measurements diverged: txs %d vs %d, dropped %d vs %d",
			a.OrderedTxs, b.OrderedTxs, a.FaultsDropped, b.FaultsDropped)
	}
}
