package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"clanbft/internal/perfbench"
)

// TestCompareBaselineMissingRow: a baseline row the suite no longer produces
// fails the gate, where it used to pass unnoticed; matching rows pass.
func TestCompareBaselineMissingRow(t *testing.T) {
	kept := perfbench.CounterRow{Name: "Kept", AllocsPerOp: 3}
	path := filepath.Join(t.TempDir(), "baseline.json")
	data, err := json.Marshal(perfbench.Artifact{Counters: []perfbench.CounterRow{kept, {Name: "Deleted"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareBaseline([]perfbench.CounterRow{kept}, path); err == nil {
		t.Fatal("a baseline row missing from the suite passed the gate")
	}
	if err := compareBaseline([]perfbench.CounterRow{kept, {Name: "Deleted"}}, path); err != nil {
		t.Fatalf("matching rows failed the gate: %v", err)
	}
}
