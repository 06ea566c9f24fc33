package harness

import (
	"fmt"
	"io"
	"time"

	"clanbft/internal/committee"
	"clanbft/internal/core"
	"clanbft/internal/simnet"
	"clanbft/internal/types"
)

// This file defines every table and figure of the paper's evaluation as a
// runnable experiment. cmd/bench and bench_test.go call these.

// PaperLoads is the Section 7 methodology load set (transactions per
// proposal).
var PaperLoads = []int{1, 32, 63, 125, 250, 500, 1000, 1500, 2000, 3000, 4000, 5000, 6000}

// DefaultLoads is the reduced sweep the bundled tools run by default — the
// full PaperLoads sweep at n=150 costs hours of host CPU; these points pin
// the curve's shape (pre-saturation, knee, and saturated region).
var DefaultLoads = []int{250, 1000, 3000, 6000}

// Fig6Loads is Figure 6's x-axis.
var Fig6Loads = []int{250, 500, 1000, 1500}

// Figure1Row is one point of the clan-size curve.
type Figure1Row struct {
	N, F, ClanSize int
	FailureProb    float64
}

// Figure1 computes the paper's Figure 1: minimum clan size ensuring an
// honest majority with failure probability below 1e-9, for n = 100..1000.
func Figure1() []Figure1Row {
	th := committee.RatFromFloat(1e-9)
	var rows []Figure1Row
	for n := 100; n <= 1000; n += 50 {
		f := committee.MaxFaulty(n)
		nc := committee.MinClanSize(n, f, th)
		rows = append(rows, Figure1Row{
			N: n, F: f, ClanSize: nc,
			FailureProb: committee.Float(committee.DishonestMajorityProb(n, f, nc)),
		})
	}
	return rows
}

// PrintFigure1 renders the Figure 1 table.
func PrintFigure1(w io.Writer) {
	fmt.Fprintln(w, "Figure 1 — clan size ensuring honest majority (failure < 1e-9)")
	fmt.Fprintf(w, "%8s %8s %10s %14s\n", "n", "f", "clan", "failure prob")
	for _, r := range Figure1() {
		fmt.Fprintf(w, "%8d %8d %10d %14.3g\n", r.N, r.F, r.ClanSize, r.FailureProb)
	}
}

// PrintTable1 renders the Table 1 latency matrix the simulator uses.
func PrintTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — ping latencies (ms) between GCP regions (simulator input)")
	fmt.Fprintf(w, "%-24s", "source \\ dest")
	for _, r := range simnet.RegionNames {
		fmt.Fprintf(w, "%10.8s", r)
	}
	fmt.Fprintln(w)
	for i, r := range simnet.RegionNames {
		fmt.Fprintf(w, "%-24s", r)
		for j := range simnet.RegionNames {
			fmt.Fprintf(w, "%10.2f", simnet.Table1RTTms[i][j])
		}
		fmt.Fprintln(w)
	}
}

// paperLeaders pins the experiments that reproduce the paper's figures and
// tables to the protocol the paper evaluates: Sailfish with one leader a
// round. Everything else in the repository runs the default, every eligible
// member an anchor (core.Config.LeadersPerRound).
const paperLeaders = 1

// SweepConfig parameterizes a throughput/latency sweep (Figures 5 and 6).
type SweepConfig struct {
	N       int
	Loads   []int
	Modes   []core.Mode
	Warmup  time.Duration
	Measure time.Duration
	Seed    int64
}

// Figure5 runs the throughput-vs-latency sweep of Figure 5 at the given
// system size. Modes defaults to {baseline, single-clan}, plus multi-clan at
// n >= 150 (the paper forms two clans only at n=150).
func Figure5(cfg SweepConfig) []Result {
	if cfg.Loads == nil {
		cfg.Loads = DefaultLoads
	}
	if cfg.Modes == nil {
		cfg.Modes = []core.Mode{core.ModeBaseline, core.ModeSingleClan}
		if cfg.N >= 150 {
			cfg.Modes = append(cfg.Modes, core.ModeMultiClan)
		}
	}
	var out []Result
	for _, mode := range cfg.Modes {
		for _, load := range cfg.Loads {
			out = append(out, Run(Config{
				Mode:            mode,
				N:               cfg.N,
				LeadersPerRound: paperLeaders,
				TxPerProposal:   load,
				Warmup:          cfg.Warmup,
				Measure:         cfg.Measure,
				Seed:            cfg.Seed,
			}))
		}
	}
	return out
}

// PrintSweep renders sweep results as the paper's series: one row per
// (protocol, load) with throughput and latency.
func PrintSweep(w io.Writer, title string, results []Result) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-14s %6s %6s %10s %12s %12s %12s %8s %14s\n",
		"protocol", "n", "clan", "txs/prop", "tps", "avg lat", "p95 lat", "rounds", "wire bytes/s")
	for _, r := range results {
		clan := "-"
		if r.ClanSize > 0 {
			clan = fmt.Sprintf("%d", r.ClanSize)
			if r.NumClans > 1 {
				clan = fmt.Sprintf("%dx%d", r.NumClans, r.ClanSize)
			}
		}
		fmt.Fprintf(w, "%-14s %6d %6s %10d %12.0f %12v %12v %8d %14.3g\n",
			r.Mode, r.N, clan, r.TxPerProposal, r.TPS,
			r.AvgLatency.Round(time.Millisecond),
			r.P95Latency.Round(time.Millisecond), r.Rounds, r.BytesPerSec)
	}
}

// CommRow compares measured wire bytes against the paper's asymptotic
// communication-complexity claims (Sections 3-6).
type CommRow struct {
	Mode        core.Mode
	N, ClanSize int
	// PayloadBytes is bytes moved in VAL messages (the n_c*l / n*l term);
	// ControlBytes is everything else (echoes, certs: the kappa*n^2+n^3
	// term).
	PayloadBytes uint64
	ControlBytes uint64
	TotalBytes   uint64
	// PayloadBound is the per-round analytic payload bound in bytes:
	// baseline n^2*l, single-clan n_c^2*l (clan proposers only),
	// multi-clan n*n_c*l.
	PayloadBound uint64
	Rounds       int
}

// CommComplexity measures per-protocol wire traffic at one load and checks
// it against the asymptotic payload bounds.
func CommComplexity(n, load int, seed int64) []CommRow {
	var rows []CommRow
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeSingleClan, core.ModeMultiClan} {
		r := Run(Config{
			Mode: mode, N: n, TxPerProposal: load, LeadersPerRound: paperLeaders,
			Warmup: 2 * time.Second, Measure: 6 * time.Second, Seed: seed,
		})
		row := CommRow{Mode: mode, N: n, ClanSize: r.ClanSize, Rounds: r.Rounds}
		for k, v := range r.BytesByKind {
			row.TotalBytes += v
			switch k {
			case types.KindVal, types.KindVtxRsp:
				row.PayloadBytes += v
			default:
				row.ControlBytes += v
			}
		}
		blockBytes := uint64(load) * 512
		perRound := uint64(0)
		switch mode {
		case core.ModeBaseline:
			perRound = uint64(n) * uint64(n) * blockBytes
		case core.ModeSingleClan:
			perRound = uint64(r.ClanSize) * uint64(r.ClanSize) * blockBytes
		case core.ModeMultiClan:
			perRound = uint64(n) * uint64(r.ClanSize) * blockBytes
		}
		row.PayloadBound = perRound * uint64(r.Rounds)
		rows = append(rows, row)
	}
	return rows
}

// PrintComm renders the communication-complexity comparison.
func PrintComm(w io.Writer, rows []CommRow) {
	fmt.Fprintln(w, "Communication complexity — measured payload bytes vs analytic bound")
	fmt.Fprintf(w, "%-14s %6s %6s %14s %14s %14s %9s\n",
		"protocol", "n", "clan", "payload B", "bound B", "control B", "pl/bound")
	for _, r := range rows {
		ratio := float64(r.PayloadBytes) / float64(r.PayloadBound)
		fmt.Fprintf(w, "%-14s %6d %6d %14d %14d %14d %9.2f\n",
			r.Mode, r.N, r.ClanSize, r.PayloadBytes, r.PayloadBound, r.ControlBytes, ratio)
	}
}

// Section62Numbers returns the paper's concrete multi-clan probabilities:
// (150, 2) -> ~4.015e-6 and (387, 3) -> ~1.11e-6.
func Section62Numbers() (twoClans, threeClans float64) {
	two := committee.MultiClanFailureProb(150, committee.MaxFaulty(150), committee.EqualPartitionSizes(150, 2))
	three := committee.MultiClanFailureProb(387, committee.MaxFaulty(387), committee.EqualPartitionSizes(387, 3))
	return committee.Float(two), committee.Float(three)
}

// AblateClanSize sweeps the single-clan protocol across clan sizes at fixed
// load, exposing the security/throughput dial the paper's Figure 1 implies:
// smaller clans move fewer bytes but tolerate a higher dishonest-majority
// probability.
func AblateClanSize(n, load int, sizes []int, seed int64) []Result {
	var out []Result
	for _, size := range sizes {
		out = append(out, Run(Config{
			Mode: core.ModeSingleClan, N: n, ClanSize: size,
			LeadersPerRound: paperLeaders,
			TxPerProposal:   load,
			Warmup:          2 * time.Second, Measure: 6 * time.Second,
			Seed: seed,
		}))
	}
	return out
}
