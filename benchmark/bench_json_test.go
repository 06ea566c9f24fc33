package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the tables in
// workload.go together: same workloads, same metrics, same units and bounds,
// in the same order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Command) != 2 || doc.Command[0] != "bash" || doc.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %v", doc.Command)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds != 20 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, code has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(doc.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Bound != d.bound || j.Better != "lower" {
			t.Errorf("end-to-end %d: %+v, code has %+v", i, j, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		setup = setup || (d.name == "setup_s" && d.unit == "s")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		j := doc.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || (j.Better != "lower" && j.Better != "higher") {
			t.Errorf("per-layer %d: %+v, code has %+v", i, j, d)
		}
	}
}
