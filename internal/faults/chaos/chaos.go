// Package chaos is the seeded mixed-fault property runner: it spins up a
// full consensus cluster on the deterministic simulator, wraps every
// endpoint in the fault layer, drives a generated schedule of drops,
// duplicate/reorder rules, partitions with heal, and up-to-f crash/restart
// cycles with scripted WAL-tail damage, and checks the two properties the
// paper's protocol promises under benign faults:
//
//   - safety: the committed sequences of all honest nodes are prefix
//     consistent, no node orders one position twice within an incarnation,
//     and no node is observed proposing two different vertices for one
//     (round, source) position (the write-ahead proposal record makes
//     recovery equivocation-free);
//   - liveness: every node's commit height strictly advances after the last
//     fault heals.
//
// Everything — the schedule, the per-message fault decisions, the simulated
// cluster — derives from one seed, so a failing run reproduces exactly from
// the seed printed with the violation. Both chaos_test.go and
// `cmd/bench -exp chaos` run scenarios through Run.
package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/crypto"
	"clanbft/internal/faults"
	"clanbft/internal/mempool"
	"clanbft/internal/metrics"
	"clanbft/internal/simnet"
	"clanbft/internal/store"
	"clanbft/internal/types"
)

// execQueue is the exec stage's bounded-channel capacity for chaos nodes.
// Chaos always runs the async execution boundary: the push side takes no
// clock-dependent action, so the simulator's event schedule — and the trace
// the safety checks require to be byte-identical per seed — is unchanged,
// while the property checks themselves exercise the flush barrier.
const execQueue = 64

// Options parameterizes one chaos scenario.
type Options struct {
	// Seed drives everything: key generation, the simulator, the fault
	// layer's per-message decisions, and (when Schedule is nil) the
	// generated schedule.
	Seed int64
	Mode core.Mode
	// N is the cluster size (default 7, f = 2).
	N int
	// Dir is the scratch directory for the per-node disk stores (one
	// subdirectory per node). Required: crash/restart recovers from real
	// WAL files so torn-tail damage is exercised end to end.
	Dir string
	// Schedule overrides the generated schedule (nil = GenSchedule(Seed)).
	Schedule *faults.Schedule
	// CheckSigs enables real signature verification (slower; chaos sweeps
	// default to modeled crypto since the fault layer never forges).
	CheckSigs bool
	// LeadersPerRound bounds the anchors per round: zero is core's default
	// (every eligible member), 1 pins the single-leader chain walk.
	LeadersPerRound int
	// LeaderReputation enables the reputation-driven leader schedule:
	// committed timeout evidence demotes offenders from the rotation.
	// The property checks are unchanged — safety and liveness must hold
	// with the mutable schedule under the same fault mixes.
	LeaderReputation bool
	// GCDepth overrides how many rounds behind the commit frontier each
	// node retains (core's default when zero). Scenarios that keep nodes
	// down for long stretches raise it so the survivors can still serve
	// vertex pulls when the victims catch back up — the simulated cluster
	// has no snapshot state-sync path (that is the TCP bootstrap's job).
	GCDepth int
	// FreshStoreOnRestart wipes the node's store before a restart instead
	// of recovering from it — the pre-fault-layer behavior. Used by the
	// control test proving the equivocation monitor catches a node that
	// skips recovery (it forgets its write-ahead proposal records and
	// re-proposes rounds it already proposed in).
	FreshStoreOnRestart bool
	// AllowEquivocation disables the equivocation monitor for the listed
	// nodes — used by the TornLastRecord robustness scenario, where the
	// damaged node legitimately loses its write-ahead proposal record and
	// only the survivors' safety is asserted.
	AllowEquivocation map[types.NodeID]bool
	// Members is the epoch-0 active member set (nil = all N). Parties
	// outside it run as observers until a committed join admits them.
	Members []types.NodeID
	// ReconfigDelay overrides the epoch fence distance (rounds between a
	// reconfig commit and its activation; core's default when zero).
	ReconfigDelay types.Round
	// Reconfigs schedules signed membership transactions over the run —
	// the churn dimension of the chaos space: joins and leaves commit and
	// fence while partitions, drops, and crash/restart cycles are active.
	Reconfigs []Reconfig
}

// Reconfig is one scheduled membership change.
type Reconfig struct {
	At     time.Duration
	Action types.ReconfigAction
	Node   types.NodeID
	Addr   string // advertised dial address (joins)
}

// Result is one scenario's outcome.
type Result struct {
	Seed       int64
	Mode       core.Mode
	Schedule   faults.Schedule
	Violations []string
	// Trace is the deterministic event log: identical for identical
	// (seed, schedule) inputs. Printed alongside the seed on violation.
	Trace string
	// OrderedAtCheck / OrderedAtEnd are per-node commit heights at the
	// post-heal checkpoint and at the end of the run.
	OrderedAtCheck []int
	OrderedAtEnd   []int
	// EpochAtEnd is each node's final epoch number — the membership-churn
	// witness: scheduled reconfigs must have fenced on every node.
	EpochAtEnd []uint64
	// Timeouts is each node's leader-timeout count (current incarnation,
	// read before shutdown) — the reputation tests compare this across
	// schedule modes: with reputation on, a crashed leader is demoted
	// after its first committed timeout instead of stalling every pass.
	Timeouts []int
	// Offenses is each node's count of committed reputation evidence
	// folded into the schedule (0 with reputation off).
	Offenses []int
	// Pipeline is the cluster-wide merged per-stage metrics snapshot
	// (current incarnations, taken at the end of the run).
	Pipeline metrics.Snapshot
}

// Failed reports whether any property was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

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

	// Up to f crash/restart cycles. Node 0 is spared so the runner always
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

// cluster is one scenario's live state.
type cluster struct {
	opts   Options
	net    *simnet.Net
	fnet   *faults.Net
	trace  *faults.Trace
	eps    []*faults.Endpoint
	keys   []crypto.KeyPair
	reg    *crypto.Registry
	clans  [][]types.NodeID
	dirs   []string
	stores []store.Store
	nodes  []*core.Node
	regs   []*metrics.Registry
	orders [][]types.Position

	valSeen    map[types.Position]types.Hash
	violations []string
}

func (c *cluster) fail(format string, args ...any) {
	v := fmt.Sprintf(format, args...)
	c.violations = append(c.violations, v)
	c.trace.Logf(c.net.Now(), "VIOLATION: %s", v)
}

// startNode builds (or rebuilds) node i on its wrapped endpoint and current
// store and starts it. Restarts reset the node's order sink: recovery
// re-emits the total order from the beginning (at-least-once delivery), so
// each incarnation's sequence is comparable from index zero.
func (c *cluster) startNode(i int) {
	id := types.NodeID(i)
	c.orders[i] = nil
	node := core.New(core.Config{
		Self:             id,
		N:                c.opts.N,
		Mode:             c.opts.Mode,
		Clans:            c.clans,
		Key:              &c.keys[i],
		Reg:              c.reg,
		Store:            c.stores[i],
		Blocks:           mempool.NewGenerator(id, 3, 64, true),
		Members:          c.opts.Members,
		ReconfigDelay:    c.opts.ReconfigDelay,
		RoundTimeout:     700 * time.Millisecond,
		ExecQueue:        execQueue,
		Metrics:          c.regs[i],
		LeadersPerRound:  c.opts.LeadersPerRound,
		LeaderReputation: c.opts.LeaderReputation,
		GCDepth:          c.opts.GCDepth,
		Deliver: func(cv core.CommittedVertex) {
			c.orders[i] = append(c.orders[i], cv.Vertex.Pos())
		},
	}, c.eps[i], c.net.Clock(id))
	c.nodes[i] = node
	node.Start()
}

// Run executes one scenario and checks its properties.
func Run(opts Options) Result {
	if opts.N == 0 {
		opts.N = 7
	}
	n := opts.N
	f := (n - 1) / 3
	sched := GenSchedule(opts.Seed, n, f)
	if opts.Schedule != nil {
		sched = *opts.Schedule
	}

	trace := &faults.Trace{}
	c := &cluster{
		opts:    opts,
		net:     simnet.New(simnet.Config{N: n, Seed: opts.Seed + 11, LatencyRTTms: [][]float64{{20}}, JitterPct: -1}),
		fnet:    faults.NewNet(n, sched.Seed, trace),
		trace:   trace,
		keys:    crypto.GenerateKeys(n, uint64(opts.Seed)*2654435761+99),
		eps:     make([]*faults.Endpoint, n),
		dirs:    make([]string, n),
		stores:  make([]store.Store, n),
		nodes:   make([]*core.Node, n),
		regs:    make([]*metrics.Registry, n),
		orders:  make([][]types.Position, n),
		valSeen: map[types.Position]types.Hash{},
	}
	c.reg = crypto.NewRegistry(c.keys, opts.CheckSigs)
	// Clans draw from the epoch-0 member set (the full universe when no
	// membership restriction is in play).
	members := opts.Members
	if members == nil {
		members = make([]types.NodeID, n)
		for i := range members {
			members[i] = types.NodeID(i)
		}
	}
	switch opts.Mode {
	case core.ModeSingleClan:
		c.clans = [][]types.NodeID{members[:len(members)-2]}
	case core.ModeMultiClan:
		half := (len(members) + 1) / 2
		c.clans = [][]types.NodeID{members[:half], members[half:]}
	}

	// The equivocation monitor: every VAL passing the fault layer must
	// carry the same vertex digest for a given position, across crashes and
	// restarts — the write-ahead proposal record guarantees a recovered
	// node never re-proposes a round it already proposed in.
	c.fnet.SetTap(func(from, to types.NodeID, m types.Message) {
		val, ok := m.(*types.ValMsg)
		if !ok || val.Vertex == nil || opts.AllowEquivocation[from] {
			return
		}
		pos := val.Vertex.Pos()
		if pos.Source != from {
			return // relayed/pulled vertices are judged at their source
		}
		d := val.Vertex.DigestCached()
		if prev, ok := c.valSeen[pos]; ok {
			if prev != d {
				c.fail("equivocation: node %d proposed two vertices for %v", from, pos)
			}
			return
		}
		c.valSeen[pos] = d
	})

	for i := 0; i < n; i++ {
		c.dirs[i] = filepath.Join(opts.Dir, fmt.Sprintf("node%d", i))
		s, err := store.Open(c.dirs[i], store.Options{})
		if err != nil {
			c.fail("store open node %d: %v", i, err)
			return c.result(sched, nil, nil)
		}
		c.stores[i] = s
		c.eps[i] = c.fnet.Wrap(c.net.Endpoint(types.NodeID(i)), c.net.Clock(types.NodeID(i)))
		c.regs[i] = metrics.New()
		c.eps[i].RegisterMetrics(c.regs[i])
	}
	for i := 0; i < n; i++ {
		c.startNode(i)
	}

	// Scheduled membership churn: sign each tx under the run's key universe
	// and submit it to every live incarnation at the scripted virtual time.
	// A node crashed at submission time simply loses its copy — survivors
	// carry the tx to commitment, like any other state-machine input.
	for _, rc := range opts.Reconfigs {
		rc := rc
		c.net.Clock(0).After(rc.At, func() {
			tx := types.ReconfigTx{Action: rc.Action, Node: rc.Node, Addr: rc.Addr}
			core.SignReconfig(c.reg, &c.keys[rc.Node], &tx)
			c.trace.Logf(c.net.Now(), "reconfig submitted: action=%d node=%d", rc.Action, rc.Node)
			for i := range c.nodes {
				c.nodes[i].SubmitReconfig(tx)
			}
		})
	}

	faults.Drive(sched, c.net.Clock(0), c.fnet, faults.Hooks{
		Crash: func(id types.NodeID) {
			c.nodes[id].Stop()
			if err := c.stores[id].Close(); err != nil {
				c.fail("store close node %d: %v", id, err)
			}
		},
		Restart: func(id types.NodeID, ev faults.Event) {
			if opts.FreshStoreOnRestart {
				os.RemoveAll(c.dirs[id])
			}
			if err := faults.DamageWALTail(store.WALPath(c.dirs[id]), ev.Torn, ev.Arg); err != nil {
				c.fail("wal damage node %d: %v", id, err)
				return
			}
			s, err := store.Open(c.dirs[id], store.Options{})
			if err != nil {
				c.fail("store reopen node %d: %v", id, err)
				return
			}
			c.stores[id] = s
			c.startNode(int(id))
			c.trace.Logf(c.net.Now(), "node %d recovered at round %d", id, c.nodes[id].Round())
		},
	})

	// Checkpoint after the last scheduled event (the heal), then a liveness
	// window: commit heights must strictly advance post-heal.
	var lastAt time.Duration
	for _, ev := range sched.Events {
		if ev.At > lastAt {
			lastAt = ev.At
		}
	}
	checkAt := lastAt + 1500*time.Millisecond
	endAt := checkAt + 4500*time.Millisecond

	c.net.RunUntil(checkAt)
	// Commit heights are written by the async exec stages; drain them
	// before reading (stopped nodes flush as a no-op).
	for i := range c.nodes {
		c.nodes[i].Flush()
	}
	atCheck := make([]int, n)
	for i := range c.orders {
		atCheck[i] = len(c.orders[i])
	}
	c.trace.Logf(c.net.Now(), "checkpoint: ordered=%v", atCheck)

	c.net.RunUntil(endAt)
	for i := range c.nodes {
		c.nodes[i].Flush()
	}
	atEnd := make([]int, n)
	for i := range c.orders {
		atEnd[i] = len(c.orders[i])
	}
	c.trace.Logf(c.net.Now(), "end: ordered=%v", atEnd)

	// Liveness: every node commits new vertices after the heal.
	for i := range atEnd {
		if atEnd[i] <= atCheck[i] {
			c.fail("liveness: node %d stuck at %d ordered after heal", i, atCheck[i])
		}
	}
	// Safety: prefix-consistent total order across all nodes, no position
	// ordered twice within an incarnation.
	c.checkSafety()

	snaps := make([]metrics.Snapshot, 0, n)
	epochsAtEnd := make([]uint64, n)
	timeouts := make([]int, n)
	offenses := make([]int, n)
	for i := range c.nodes {
		snaps = append(snaps, c.nodes[i].PipelineSnapshot())
		epochsAtEnd[i] = c.nodes[i].CurrentEpoch()
		m := c.nodes[i].MetricsSnapshot()
		timeouts[i] = m.Timeouts
		offenses[i] = m.ReputationOffenses
	}
	for i := range c.nodes {
		c.nodes[i].Stop()
	}
	for i := range c.stores {
		c.stores[i].Close()
	}
	res := c.result(sched, atCheck, atEnd)
	res.EpochAtEnd = epochsAtEnd
	res.Timeouts = timeouts
	res.Offenses = offenses
	res.Pipeline = metrics.Merge(snaps...)
	return res
}

func (c *cluster) checkSafety() {
	ref, refNode := []types.Position(nil), -1
	for i, seq := range c.orders {
		if len(seq) > len(ref) {
			ref, refNode = seq, i
		}
	}
	for i, seq := range c.orders {
		seen := map[types.Position]bool{}
		for j, pos := range seq {
			if seen[pos] {
				c.fail("double commit: node %d ordered %v twice", i, pos)
				break
			}
			seen[pos] = true
			if i != refNode && pos != ref[j] {
				c.fail("order divergence: node %d position %d has %v, node %d has %v",
					i, j, pos, refNode, ref[j])
				break
			}
		}
	}
}

func (c *cluster) result(sched faults.Schedule, atCheck, atEnd []int) Result {
	return Result{
		Seed:           c.opts.Seed,
		Mode:           c.opts.Mode,
		Schedule:       sched,
		Violations:     c.violations,
		Trace:          c.trace.String(),
		OrderedAtCheck: atCheck,
		OrderedAtEnd:   atEnd,
	}
}
