// Package chaos holds the seeded mixed-fault scenarios and the properties
// they check. GenSchedule builds a schedule of drops, duplicate/reorder
// rules, a partition with heal, and up-to-f crash/restart cycles with
// scripted WAL-tail damage; harness.Run drives it over a simulated cluster
// (Config.Faults); Check then tests the two properties the paper's protocol
// promises under benign faults:
//
//   - safety: the committed sequences of all nodes are prefix consistent, no
//     node orders one position twice within an incarnation, and no node is
//     observed proposing two different vertices for one (round, source)
//     position (the write-ahead proposal record makes recovery
//     equivocation-free);
//   - liveness: every node's commit height strictly advances over Measure.
//
// Everything — the schedule, the per-message fault decisions, the simulated
// cluster — derives from the seeds in harness.Config, so a failing run
// reproduces exactly from them. Both chaos_test.go and `cmd/bench -exp chaos`
// run scenarios this way.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"clanbft/internal/faults"
	"clanbft/internal/harness"
	"clanbft/internal/types"
)

// GenSchedule builds a reproducible mixed-fault schedule for an n-node
// cluster tolerating f crashes: a few probabilistic link rules, one named
// partition, between 1 and f crash/restart cycles with randomized torn-tail
// modes, and a heal-everything event at healAt. Only tail damage within the
// durability contract is scripted (TornNone, TornAppend, TornLastBoundary):
// destroying acknowledged records is a separate, dedicated scenario.
func GenSchedule(seed int64, n, f int) faults.Schedule {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	const healAt = 7 * time.Second
	var evs []faults.Event

	// Probabilistic link rules, installed early, cleared by the heal.
	for i, k := 0, 2+rng.Intn(3); i < k; i++ {
		from := types.NodeID(rng.Intn(n))
		to := types.NodeID(rng.Intn(n))
		if from == to {
			to = types.NodeID((int(to) + 1) % n)
		}
		ev := faults.Event{
			At:   time.Second + time.Duration(rng.Int63n(int64(3*time.Second))),
			From: from,
			To:   to,
		}
		switch rng.Intn(3) {
		case 0:
			ev.Kind = faults.KindDrop
			ev.P = 0.1 + 0.3*rng.Float64()
		case 1:
			ev.Kind = faults.KindDup
			ev.P = 0.2 + 0.3*rng.Float64()
		default:
			ev.Kind = faults.KindReorder
			ev.Delay = 50*time.Millisecond + time.Duration(rng.Int63n(int64(150*time.Millisecond)))
		}
		evs = append(evs, ev)
	}

	// One named partition with a random split, healed by the heal-all.
	perm := rng.Perm(n)
	cut := 1 + rng.Intn(n-1)
	groups := make([][]types.NodeID, 2)
	for i, p := range perm {
		g := 0
		if i >= cut {
			g = 1
		}
		groups[g] = append(groups[g], types.NodeID(p))
	}
	evs = append(evs, faults.Event{
		At: 4 * time.Second, Kind: faults.KindPartition, Name: "split", Groups: groups,
	})

	// Up to f crash/restart cycles. Node 0 is spared so the run always
	// has one never-crashed reference node for progress accounting.
	k := 1 + rng.Intn(f)
	victims := rng.Perm(n - 1)[:k]
	torns := []int{faults.TornNone, faults.TornAppend, faults.TornLastBoundary}
	for _, v := range victims {
		node := types.NodeID(v + 1)
		crashAt := 2*time.Second + time.Duration(rng.Int63n(int64(2500*time.Millisecond)))
		restartAt := crashAt + 1500*time.Millisecond + time.Duration(rng.Int63n(int64(time.Second)))
		evs = append(evs,
			faults.Event{At: crashAt, Kind: faults.KindCrash, Node: node},
			faults.Event{At: restartAt, Kind: faults.KindRestart, Node: node, Torn: torns[rng.Intn(len(torns))]},
		)
	}

	evs = append(evs, faults.Event{At: healAt, Kind: faults.KindHeal})
	return faults.Schedule{Seed: seed, Events: evs}
}

// Check returns the safety and liveness violations in r, one line each, or
// nil, and r.Err if set. r must come from a run with Config.Faults set.
func Check(r harness.Result) []string {
	var out []string
	if r.Err != nil {
		out = append(out, fmt.Sprintf("store: %v", r.Err))
	}
	ref, refNode := []types.Position(nil), -1
	for i, nd := range r.Nodes {
		if len(nd.Order) > len(ref) {
			ref, refNode = nd.Order, i
		}
	}
	for i, nd := range r.Nodes {
		for _, pos := range nd.Equivocations {
			out = append(out, fmt.Sprintf("equivocation: node %d proposed two vertices for %v", i, pos))
		}
		if len(nd.Order) <= nd.OrderedAtWarmup {
			out = append(out, fmt.Sprintf("liveness: node %d stuck at %d ordered after warmup", i, nd.OrderedAtWarmup))
		}
		seen := map[types.Position]bool{}
		for j, pos := range nd.Order {
			if seen[pos] {
				out = append(out, fmt.Sprintf("double commit: node %d ordered %v twice", i, pos))
				break
			}
			seen[pos] = true
			if i != refNode && pos != ref[j] {
				out = append(out, fmt.Sprintf("order divergence: node %d position %d has %v, node %d has %v",
					i, j, pos, refNode, ref[j]))
				break
			}
		}
	}
	return out
}
