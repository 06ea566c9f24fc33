package clanbft

// One testing.B benchmark per table/figure of the paper. Each benchmark runs
// a reduced-scale version of the corresponding experiment (one load point,
// short windows) and reports throughput/latency via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation's shape in
// minutes. The full-scale series (paper sizes, longer windows, full sweeps)
// are produced by cmd/bench; EXPERIMENTS.md records both.

import (
	"testing"
	"time"

	"clanbft/internal/committee"
	"clanbft/internal/core"
	"clanbft/internal/harness"
)

// BenchmarkFigure1 regenerates the clan-size curve (pure math, exact).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Figure1()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.ClanSize), "clan@n=1000")
	}
}

// BenchmarkTable1 validates the latency matrix by measuring a one-way delay
// on the simulator against the paper's ping table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Run(harness.Config{
			Mode: core.ModeBaseline, N: 5, TxPerProposal: 1,
			Warmup: time.Second, Measure: 2 * time.Second, Seed: 1,
		})
		if r.Rounds == 0 {
			b.Fatal("no progress")
		}
		b.ReportMetric(float64(r.AvgLatency.Milliseconds()), "commit_ms")
	}
}

func sweepPoint(b *testing.B, mode core.Mode, n, load int) {
	b.Helper()
	warm, meas := 2*time.Second, 5*time.Second
	if n >= 150 {
		// n=150 costs ~30 host-seconds per simulated second on one core;
		// the benchmark pins the figure's shape with a shorter window
		// (cmd/bench records the longer series).
		warm, meas = time.Second, 3*time.Second
	}
	for i := 0; i < b.N; i++ {
		r := harness.Run(harness.Config{
			Mode: mode, N: n, TxPerProposal: load,
			Warmup: warm, Measure: meas, Seed: 1,
		})
		if r.TPS == 0 {
			b.Fatal("no throughput")
		}
		b.ReportMetric(r.TPS, "tps")
		b.ReportMetric(float64(r.AvgLatency.Milliseconds()), "latency_ms")
	}
}

// BenchmarkFigure5a: throughput vs latency at n=50 (one representative load
// per protocol; cmd/bench -exp fig5a sweeps the full series).
func BenchmarkFigure5a_Sailfish(b *testing.B)   { sweepPoint(b, core.ModeBaseline, 50, 2000) }
func BenchmarkFigure5a_SingleClan(b *testing.B) { sweepPoint(b, core.ModeSingleClan, 50, 2000) }

// BenchmarkFigure5b: n=100.
func BenchmarkFigure5b_Sailfish(b *testing.B)   { sweepPoint(b, core.ModeBaseline, 100, 1000) }
func BenchmarkFigure5b_SingleClan(b *testing.B) { sweepPoint(b, core.ModeSingleClan, 100, 1000) }

// BenchmarkFigure5c: n=150 including multi-clan.
func BenchmarkFigure5c_Sailfish(b *testing.B)   { sweepPoint(b, core.ModeBaseline, 150, 500) }
func BenchmarkFigure5c_SingleClan(b *testing.B) { sweepPoint(b, core.ModeSingleClan, 150, 500) }
func BenchmarkFigure5c_MultiClan(b *testing.B)  { sweepPoint(b, core.ModeMultiClan, 150, 500) }

// BenchmarkFigure6: throughput at fixed input load, n=150 (a point on the
// paper's Figure 6 x-axis). Reuses the Figure 5c machinery — Figure 6 is
// the same data viewed against input load.
func BenchmarkFigure6_Sailfish(b *testing.B)   { sweepPoint(b, core.ModeBaseline, 150, 1000) }
func BenchmarkFigure6_SingleClan(b *testing.B) { sweepPoint(b, core.ModeSingleClan, 150, 1000) }
func BenchmarkFigure6_MultiClan(b *testing.B)  { sweepPoint(b, core.ModeMultiClan, 150, 1000) }

// BenchmarkSection62 regenerates the multi-clan probability numbers.
func BenchmarkSection62(b *testing.B) {
	for i := 0; i < b.N; i++ {
		two, three := harness.Section62Numbers()
		if two < 3.9e-6 || two > 4.1e-6 || three < 1.0e-6 || three > 1.2e-6 {
			b.Fatalf("probabilities off: %g %g", two, three)
		}
	}
}

// BenchmarkCommComplexity measures wire bytes per protocol against the
// paper's asymptotic claims (Sections 5-6).
func BenchmarkCommComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.CommComplexity(20, 500, 1)
		base, single := rows[0], rows[1]
		if single.PayloadBytes >= base.PayloadBytes {
			b.Fatal("single-clan moved more payload than baseline")
		}
		b.ReportMetric(float64(base.PayloadBytes)/float64(single.PayloadBytes), "payload_reduction_x")
	}
}

// BenchmarkClanSizeSolver measures the Figure 1 math itself.
func BenchmarkClanSizeSolver(b *testing.B) {
	th := committee.RatFromFloat(1e-9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if committee.MinClanSize(500, 166, th) != 183 {
			b.Fatal("wrong size")
		}
	}
}

// BenchmarkInProcCluster measures the end-to-end public API on the real
// clock: a 4-party in-process cluster committing small transactions.
func BenchmarkInProcCluster(b *testing.B) {
	c, err := NewCluster(Options{N: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	done := make(chan int, 1024)
	c.Node(0).OnCommit(func(cv Commit) {
		if cv.Block != nil {
			for range cv.Block.Txs {
				select {
				case done <- 1:
				default:
				}
			}
		}
	})
	c.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit([]byte("benchmark transaction payload, 64 bytes of data 0123456789ab"))
		<-done
	}
}
