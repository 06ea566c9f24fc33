// dagviz runs a short simulated cluster and dumps one node's DAG as Graphviz
// DOT, with leader vertices and commit paths highlighted — a debugging and
// teaching aid for the round structure described in docs/PROTOCOL.md.
//
//	go run ./cmd/dagviz -n 4 -rounds 8 | dot -Tsvg > dag.svg
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/crypto"
	"clanbft/internal/mempool"
	"clanbft/internal/simnet"
	"clanbft/internal/types"
)

func main() {
	var (
		n      = flag.Int("n", 4, "cluster size")
		rounds = flag.Int("rounds", 8, "rounds to draw")
		mode   = flag.String("mode", "sailfish", "sailfish | single-clan | multi-clan")
		clan   = flag.Int("clan", 0, "single-clan size (0 = solve)")
	)
	flag.Parse()

	m := core.ModeBaseline
	var clans [][]types.NodeID
	switch *mode {
	case "sailfish":
	case "single-clan":
		m = core.ModeSingleClan
		size := *clan
		if size == 0 {
			size = (*n)*2/3 + 1
		}
		for i := 0; i < size; i++ {
			if len(clans) == 0 {
				clans = [][]types.NodeID{{}}
			}
			clans[0] = append(clans[0], types.NodeID(i))
		}
	case "multi-clan":
		m = core.ModeMultiClan
		half := *n / 2
		clans = [][]types.NodeID{{}, {}}
		for i := 0; i < *n; i++ {
			clans[i/half%2] = append(clans[i/half%2], types.NodeID(i))
		}
	default:
		fmt.Fprintln(os.Stderr, "unknown mode")
		os.Exit(2)
	}

	net := simnet.New(simnet.Config{N: *n, LatencyRTTms: [][]float64{{60}}, JitterPct: -1, Seed: 1})
	keys := crypto.GenerateKeys(*n, 1)
	reg := crypto.NewRegistry(keys, false)
	var observer *core.Node
	ordered := map[types.Position]bool{}
	leaders := map[types.Position]bool{}
	for i := 0; i < *n; i++ {
		id := types.NodeID(i)
		nd := core.New(core.Config{
			Self: id, N: *n, Mode: m, Clans: clans,
			Key: &keys[i], Reg: reg,
			Blocks: mempool.NewGenerator(id, 2, 64, false),
			Deliver: func(cv core.CommittedVertex) {
				if id == 0 {
					ordered[cv.Vertex.Pos()] = true
					leaders[types.Position{Round: cv.LeaderRound, Source: cv.Vertex.Source}] = false
				}
			},
		}, net.Endpoint(id), net.Clock(id))
		if i == 0 {
			observer = nd
		}
		nd.Start()
	}
	// ~2 message delays per round at 30 ms one-way.
	net.Run(time.Duration(*rounds) * 150 * time.Millisecond)
	observer.Flush() // ordered is written on node 0's execution goroutine

	d := observer.DAG()
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
			if uint64(v.Source) == uint64(v.Round)%uint64(*n) {
				style = ", style=filled, fillcolor=gold" // leader slot
			} else if ordered[v.Pos()] {
				style = ", style=filled, fillcolor=lightgrey"
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
