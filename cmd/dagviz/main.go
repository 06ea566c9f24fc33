// dagviz runs a short simulated cluster and dumps one node's DAG as Graphviz
// DOT — a debugging and teaching aid for the round structure described in
// docs/PROTOCOL.md. Each anchor is coloured by the fate internal/order decides
// for it over that DAG: direct, indirect, skipped or not live.
//
//	go run ./cmd/dagviz -n 4 -rounds 8 | dot -Tsvg > dag.svg
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"clanbft/internal/committee"
	"clanbft/internal/core"
	"clanbft/internal/dag"
	"clanbft/internal/mempool"
	"clanbft/internal/order"
	"clanbft/internal/simnet"
	"clanbft/internal/types"
)

func main() {
	var (
		n      = flag.Int("n", 4, "cluster size")
		rounds = flag.Int("rounds", 8, "rounds to draw")
		mode   = flag.String("mode", "sailfish", "sailfish | single-clan | multi-clan")
		clan   = flag.Int("clan", 0, "single-clan size (0 = 2n/3+1); multi-clan runs 2 clans")
	)
	flag.Parse()

	modes := map[string]core.Mode{"sailfish": core.ModeBaseline, "single-clan": core.ModeSingleClan, "multi-clan": core.ModeMultiClan}
	m, ok := modes[*mode]
	if !ok {
		fmt.Fprintln(os.Stderr, "unknown mode")
		os.Exit(2)
	}
	if *clan == 0 {
		*clan = (*n)*2/3 + 1
	}

	net := simnet.New(simnet.Config{N: *n, LatencyRTTms: [][]float64{{60}}, JitterPct: -1, Seed: 1})
	g := core.NewGenesis(0, *n, m, nil, *clan, 2, nil)
	var observer *core.Node
	for i := 0; i < *n; i++ {
		id := types.NodeID(i)
		nd := core.New(core.Config{
			Self: id, N: *n, Mode: m, Clans: g.Clans,
			Key: &g.Keys[i], Reg: g.Reg,
			Blocks: mempool.NewGenerator(id, 2, 64, false),
		}, net.Endpoint(id), net.Clock(id))
		if i == 0 {
			observer = nd
		}
		nd.Start()
	}
	// ~2 message delays per round at 30 ms one-way.
	net.Run(time.Duration(*rounds) * 150 * time.Millisecond)

	d := observer.DAG()
	fates := replay(d, *n)
	fmt.Println("digraph dag {")
	fmt.Println("  rankdir=RL; node [shape=box, fontname=monospace];")
	for r := types.Round(0); r <= d.MaxRound() && r <= types.Round(*rounds); r++ {
		fmt.Printf("  { rank=same; ")
		for _, v := range d.RoundVertices(r) {
			fmt.Printf("\"%d/%d\"; ", v.Round, v.Source)
		}
		fmt.Println("}")
		for _, v := range d.RoundVertices(r) {
			name := fmt.Sprintf("%d/%d", v.Round, v.Source)
			style := ""
			if f, ok := fates[v.Pos()]; ok {
				style = ", style=filled, fillcolor=" + fateColour[f]
			}
			fmt.Printf("  \"%s\" [label=\"r%d p%d\"%s];\n", name, v.Round, v.Source, style)
			for _, e := range v.StrongEdges {
				fmt.Printf("  \"%s\" -> \"%d/%d\";\n", name, e.Round, e.Source)
			}
			for _, e := range v.WeakEdges {
				fmt.Printf("  \"%s\" -> \"%d/%d\" [style=dashed, color=grey];\n", name, e.Round, e.Source)
			}
		}
	}
	fmt.Println("}")
}

var fateColour = map[order.Fate]string{
	order.Direct: "gold", order.Indirect: "orange", order.Skipped: "tomato", order.NotLive: "lightblue",
}

// replay orders the vertices of src afresh, round by round, with every member
// an anchor (the nodes' default), and returns each anchor slot's fate. Each
// vertex is voted before it is inserted, as a node sees a proposal before
// its RBC delivers; slots still open at the top of the DAG get no fate.
func replay(src *dag.DAG, n int) map[types.Position]order.Fate {
	ep := &order.Epoch{F: committee.MaxFaulty(n)}
	for i := 0; i < n; i++ {
		ep.Members = append(ep.Members, types.NodeID(i))
	}
	d := dag.New(n)
	o := order.New(order.Config{N: n, LeadersPerRound: n,
		EpochOf: func(types.Round) *order.Epoch { return ep }}, d)
	fates := map[types.Position]order.Fate{}
	emit := func(s order.Step) { fates[s.Slot] = s.Fate }
	advance := func() { o.Advance(emit) }
	for r := src.MinRound(); r <= src.MaxRound(); r++ {
		for _, v := range src.RoundVertices(r) {
			o.Vote(v, advance)
			d.Insert(v)
			if o.Inserted(v.Pos()) {
				advance()
			}
		}
	}
	return fates
}
