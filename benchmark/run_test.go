package main

import (
	"io"
	"testing"
)

func shortRun(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	seconds := 2
	if w.crash {
		// The first two seconds after the crash fall inside the dead
		// leader's 3 s round timeout: nothing commits in them.
		seconds = 4
	}
	res, err := run(runConfig{w: w, seed: 1, seconds: seconds, traced: traced, boots: 2,
		outDir: t.TempDir(), report: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.gateErrs {
		t.Errorf("gate: %v", e)
	}
	if !res.correct() || res.failed != 0 || res.attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.correct(), res.attempted, res.failed)
	}
	return res
}

// TestWorkloads runs every workload for a few seconds, untraced: the gate must
// pass, no operation may fail, and every end-to-end metric must be there and
// not zero.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := shortRun(t, w, false)
			for _, d := range endToEnd {
				if v, ok := res.metrics[d.name]; !ok || !(v > 0) {
					t.Errorf("%s = %v (present %v)", d.name, v, ok)
				}
			}
		})
	}
}

// TestTracedRun checks that a traced run reports every per-layer metric and
// that its waterfall is made of complete span trees.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run adds the burst and the probes: about 12 s")
	}
	w, _ := workloadByName("clan_bulk_rw")
	res := shortRun(t, w, true)
	for _, d := range perLayer {
		if _, ok := res.metrics[d.name]; !ok {
			t.Errorf("%s not reported", d.name)
		}
	}
	for _, name := range []string{"core.consensus_span_ms", "mempool.wait_span_ms", "client.sat_tps", "client.read_p50_ms"} {
		if !(res.metrics[name] > 0) {
			t.Errorf("%s = %v", name, res.metrics[name])
		}
	}
}
