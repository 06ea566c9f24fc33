// Package harness runs the paper's experiments on the simulated
// geo-distributed deployment: it builds a cluster of consensus nodes over
// internal/simnet with the Table 1 latency matrix, drives the synthetic
// workload (k transactions of 512 bytes per proposal), and measures
// throughput and commit latency exactly as Section 7 defines — latency is
// the time from a transaction's creation to its commit at non-faulty nodes,
// throughput is committed transactions per second.
package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"clanbft/internal/committee"
	"clanbft/internal/core"
	"clanbft/internal/crypto"
	"clanbft/internal/faults"
	"clanbft/internal/mempool"
	"clanbft/internal/metrics"
	"clanbft/internal/simnet"
	"clanbft/internal/store"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// ExecQueue is the execution stage's bounded-channel capacity for harness
// nodes. The harness always exercises the async exec boundary — the
// production configuration — which is safe under the discrete-event
// simulator because measurement uses CommittedVertex.OrderedAt (stamped in
// handler context on virtual time) and the run flushes every node's
// executor before reading samples.
const ExecQueue = 256

// The simulated deployment's fixed parameters. Every transaction is txSize
// bytes. Each node sustains bandwidthBps of goodput: the e2-standard-32 line
// rate is 16 Gbps, but sustained cross-region TCP goodput (window scaling,
// congestion control, framing, GCP inter-region throttling) lands far below
// it, and 2 Gbps reproduces the paper's saturation region. Each TCP flow is
// capped at perFlowWindow/RTT, a typical Linux autotuned sender window.
// The simulation charges modelled CPU costs; signatures are checked for real
// only with Config.CheckSigs.
const (
	txSize        = 512
	bandwidthBps  = 2e9
	perFlowWindow = 2_621_440 // 2.5 MiB
)

// Config is one experiment data point.
type Config struct {
	Mode core.Mode
	N    int
	// ClanSize sets the single clan's size (ModeSingleClan). Zero picks
	// the paper's sizes for n in {50,100,150} or solves for 1e-6.
	ClanSize int
	// NumClans partitions the tribe (ModeMultiClan, default 2).
	NumClans int
	// LeadersPerRound bounds the anchors per round (zero: every eligible
	// member; 1: single-leader Sailfish, what the paper-figure experiments
	// pin). See core.Config.LeadersPerRound.
	LeadersPerRound int

	// TxPerProposal transactions of txSize bytes per proposal.
	TxPerProposal int

	// Warmup is excluded from measurement; Measure is the sampled window.
	Warmup  time.Duration // default 5 s
	Measure time.Duration // default 15 s

	Seed         int64
	RoundTimeout time.Duration // default 10 s (never fires failure-free)
	// Regions overrides the even 5-region split.
	Regions []int

	// LeaderReputation enables the reputation-driven leader schedule
	// (core.Config.LeaderReputation): committed timeout evidence demotes
	// offenders from the anchor rotation for ReputationWindow rounds.
	LeaderReputation bool
	// ReputationWindow overrides the demotion window (default 64 rounds).
	ReputationWindow types.Round

	// Faults, when non-nil, wraps every endpoint in the deterministic
	// fault layer and drives the schedule over the run: link drop/dup/
	// reorder/delay rules, named partitions with heal, and crash/restart
	// cycles. Each node then keeps its store on disk, in a temporary
	// directory the run creates and removes. A crash stops the node and
	// closes its store; a restart applies the event's WAL-tail damage
	// (faults.Torn*), reopens the store and rebuilds the node through store
	// recovery, so re-emitted commits are deduplicated in the measurements.
	// The run also taps every VAL for equivocation and reports per-node
	// facts in Result.Nodes. The schedule's virtual times are relative to
	// the run start (warmup included).
	Faults *faults.Schedule
	// GCDepth is how many rounds behind the commit frontier each node
	// retains (default 16). Scenarios that keep a node down for long raise
	// it so the survivors can still serve the victim's vertex pulls: the
	// simulator has no snapshot state-sync.
	GCDepth int
	// CheckSigs verifies signatures for real, on top of the modelled costs.
	CheckSigs bool

	// Members is the epoch-0 active member set (nil = all N parties).
	// Parties outside it run as observers — tracking the DAG without
	// proposing — until a committed join admits them at an epoch fence.
	Members []types.NodeID
	// ReconfigDelay overrides the fence distance (core.Config.ReconfigDelay;
	// at least 2f+2 with more than one anchor a round).
	ReconfigDelay types.Round
	// Reconfigs schedules signed membership transactions over the run:
	// each is built under the deployment key universe and submitted to
	// every node's pending queue at its virtual time (relative to run
	// start, warmup included), committing like any other input.
	Reconfigs []Reconfig
}

// Reconfig is one scheduled membership change.
type Reconfig struct {
	At     time.Duration
	Action types.ReconfigAction
	Node   types.NodeID
	Addr   string // advertised dial address (joins)
}

// Result is one experiment outcome.
type Result struct {
	Mode          core.Mode
	N             int
	ClanSize      int
	NumClans      int
	TxPerProposal int

	TPS        float64       // committed transactions per second
	AvgLatency time.Duration // creation -> commit, averaged over nodes
	P50Latency time.Duration
	P95Latency time.Duration
	MaxLatency time.Duration
	Rounds     int // rounds completed by node 0
	OrderedTxs int

	// Wire accounting over the full run (all nodes, all kinds).
	TotalBytes  uint64
	BytesByKind map[types.MsgKind]uint64
	MsgsByKind  map[types.MsgKind]uint64
	BytesPerSec float64

	// FaultTrace is the fault layer's deterministic event log (empty when
	// Config.Faults is nil). Identical seed + schedule reproduce it
	// byte for byte.
	FaultTrace string
	// FaultsDropped totals the messages the fault layer suppressed across
	// all nodes (link drops, partitions, crashes).
	FaultsDropped uint64

	// ReputationOffenses sums, over all nodes, the committed timeout
	// evidence folded into the leader schedule (zero unless
	// Config.LeaderReputation is set and a leader actually missed slots).
	ReputationOffenses int

	// Pipeline is the cluster-wide merged metrics snapshot: per-stage
	// queue depths, occupancy, and latency histograms for intake, rbc,
	// order, and exec, plus transport/store counters (metrics.Merge over
	// every node's registry).
	Pipeline metrics.Snapshot

	// CommitP50/CommitP95 are quantiles of the cluster-merged
	// order.commit_latency histogram (proposal stamp → ordered): the
	// consensus-level latency spine, measured over the whole run
	// including warmup.
	CommitP50 time.Duration
	CommitP95 time.Duration

	// Order is node 0's committed sequence over the full run (vertex
	// positions in delivery order, deduplicated across restarts). It is
	// the determinism witness: an identical Config must reproduce it
	// byte for byte, async execution included.
	Order []types.Position

	// Epochs is node 0's final epoch table (oldest retained first): the
	// reconfiguration witness — membership, fence rounds, and re-sampled
	// clan assignments must reproduce byte-identically per seed.
	Epochs []core.EpochInfo

	// Nodes holds each node's facts at the end of the run (nil unless
	// Config.Faults is set); internal/faults/chaos checks them.
	Nodes []NodeResult
	// Err reports the store failures of a run with Config.Faults set: the
	// temp directory, a store open or close, or WAL damage. A node whose
	// store failed at restart stays down.
	Err error
}

// NodeResult is one node's view of a run with Config.Faults set.
type NodeResult struct {
	// Order is the current incarnation's delivered sequence. A restart
	// empties it, because recovery re-emits the order from round 0.
	Order []types.Position
	// OrderedAtWarmup is how much of Order was ordered by the end of Warmup.
	OrderedAtWarmup int
	Epoch           uint64
	Timeouts        int // leader timeouts, current incarnation
	Offenses        int // reputation evidence folded into the schedule
	// Equivocations are the positions this node sent VALs with two
	// different vertex digests for.
	Equivocations []types.Position
}

// PaperClanSize returns the clan sizes used in Section 7 (failure
// probability 1e-6): 32, 60, 80 for n = 50, 100, 150; other system sizes
// fall back to the exact strict-convention minimum.
func PaperClanSize(n int) int {
	switch n {
	case 50:
		return 32
	case 100:
		return 60
	case 150:
		return 80
	}
	f := committee.MaxFaulty(n)
	return committee.MinClanSizeStrict(n, f, committee.RatFromFloat(1e-6))
}

func (c *Config) fill() {
	if c.Warmup == 0 {
		c.Warmup = 5 * time.Second
	}
	if c.Measure == 0 {
		c.Measure = 15 * time.Second
	}
	if c.RoundTimeout == 0 {
		c.RoundTimeout = 10 * time.Second
	}
	if c.GCDepth == 0 {
		c.GCDepth = 16
	}
	if c.Mode == core.ModeSingleClan && c.ClanSize == 0 {
		c.ClanSize = PaperClanSize(c.N)
	}
	if c.Mode == core.ModeMultiClan && c.NumClans == 0 {
		c.NumClans = 2
	}
}

// Run executes one experiment and returns its measurements.
func Run(cfg Config) Result {
	cfg.fill()
	regions := cfg.Regions
	if regions == nil {
		regions = simnet.EvenRegions(cfg.N, 5)
	}
	net := simnet.New(simnet.Config{
		N:             cfg.N,
		Regions:       regions,
		BandwidthBps:  bandwidthBps,
		PerFlowWindow: perFlowWindow,
		Seed:          cfg.Seed + 1,
		BatchWindow:   2 * time.Millisecond,
	})
	keys := crypto.GenerateKeys(cfg.N, uint64(cfg.Seed)+99)
	reg := crypto.NewRegistry(keys, cfg.CheckSigs)
	// e2-standard-32: 32 vCPUs; parallelizable verification work scales
	// across ~16 physical cores (paper Section 7 implementation notes).
	costs := crypto.DefaultCosts().Parallel(16)

	var clans [][]types.NodeID
	clanSize := 0
	switch cfg.Mode {
	case core.ModeSingleClan:
		if cfg.Members != nil {
			// Membership-restricted deployments sample over the member
			// list (region balance presumes the full universe).
			size := cfg.ClanSize
			if size > len(cfg.Members) {
				size = len(cfg.Members)
			}
			clans = [][]types.NodeID{committee.SampleClanMembers(cfg.Members, size, cfg.Seed+7)}
		} else {
			clans = [][]types.NodeID{committee.BalancedClan(regions, cfg.ClanSize, cfg.Seed+7)}
		}
		clanSize = cfg.ClanSize
	case core.ModeMultiClan:
		if cfg.Members != nil {
			clans = committee.PartitionMembers(cfg.Members, cfg.NumClans, cfg.Seed+7)
		} else {
			clans = committee.BalancedPartition(regions, cfg.NumClans, cfg.Seed+7)
		}
		clanSize = len(clans[0])
	}

	type sample struct {
		latSum   time.Duration
		latMax   time.Duration
		latCount int
		txs      int
		lats     []time.Duration         // bounded reservoir for percentiles
		seen     map[types.Position]bool // dedupe across restarts (faults only)
	}
	samples := make([]sample, cfg.N)
	measureStart := cfg.Warmup
	measureEnd := cfg.Warmup + cfg.Measure

	// Commit-order witness (Result.Order): node 0's full delivery
	// sequence. Recovery after a crash re-emits the order from scratch,
	// so dedupe per position when the fault layer is active.
	var order []types.Position
	var orderSeen map[types.Position]bool
	if cfg.Faults != nil {
		orderSeen = make(map[types.Position]bool)
	}

	// Fault layer: wrap every endpoint so the schedule's link rules,
	// partitions and crash gates apply on the exact production send path.
	// Each node keeps a disk store, so a restart recovers from a real WAL
	// with the scripted tail damage; recovery re-emits the committed order
	// from round 0, so measurement dedupes per position.
	var fnet *faults.Net
	endpoints := make([]transport.Endpoint, cfg.N)
	var feps []*faults.Endpoint
	var stores []*store.Disk
	var dirs []string
	var nodeRes []NodeResult
	var storeErr error
	if cfg.Faults != nil {
		tmp, err := os.MkdirTemp("", "clanbft-harness-")
		if err != nil {
			return Result{Err: err}
		}
		defer os.RemoveAll(tmp)
		defer func() {
			for _, s := range stores {
				if s != nil {
					s.Close()
				}
			}
		}()
		fnet = faults.NewNet(cfg.N, cfg.Faults.Seed, &faults.Trace{})
		nodeRes = make([]NodeResult, cfg.N)
		fnet.SetTap(equivocationTap(nodeRes))
		feps = make([]*faults.Endpoint, cfg.N)
		stores = make([]*store.Disk, cfg.N)
		dirs = make([]string, cfg.N)
		for i := 0; i < cfg.N; i++ {
			id := types.NodeID(i)
			feps[i] = fnet.Wrap(net.Endpoint(id), net.Clock(id))
			endpoints[i] = feps[i]
			dirs[i] = filepath.Join(tmp, fmt.Sprintf("node%d", i))
			if stores[i], err = store.Open(dirs[i], store.Options{}); err != nil {
				return Result{Err: err}
			}
			samples[i].seen = make(map[types.Position]bool)
		}
	} else {
		for i := 0; i < cfg.N; i++ {
			endpoints[i] = net.Endpoint(types.NodeID(i))
		}
	}

	nodes := make([]*core.Node, cfg.N)
	regs := make([]*metrics.Registry, cfg.N)
	for i := range regs {
		regs[i] = metrics.New()
		if feps != nil {
			feps[i].RegisterMetrics(regs[i])
		}
	}

	// measure is the per-vertex measurement body, each node's Deliver. It
	// runs on the exec-stage goroutine; the virtual clock belongs to the
	// simulator goroutine and must not be read here — OrderedAt was stamped
	// in handler context.
	measure := func(i int, cv core.CommittedVertex) {
		v := cv.Vertex
		if nodeRes != nil {
			nr := &nodeRes[i]
			nr.Order = append(nr.Order, v.Pos())
			if cv.OrderedAt <= cfg.Warmup {
				nr.OrderedAtWarmup = len(nr.Order)
			}
		}
		if i == 0 {
			pos := v.Pos()
			if orderSeen == nil {
				order = append(order, pos)
			} else if !orderSeen[pos] {
				orderSeen[pos] = true
				order = append(order, pos)
			}
		}
		if v.BlockDigest.IsZero() {
			return
		}
		s := &samples[i]
		if s.seen != nil {
			// Recovery replays the whole order; count each
			// position once per node across incarnations.
			pos := v.Pos()
			if s.seen[pos] {
				return
			}
			s.seen[pos] = true
		}
		now := cv.OrderedAt
		if now < measureStart || now > measureEnd {
			return
		}
		// Every node observes the commit of every vertex (the
		// digest is global); latency needs the creation stamp,
		// which clan members have via the block. Count
		// throughput once per node from vertex metadata via
		// the block when held; nodes without the block count
		// via the proposer's generator parameters.
		if cv.Block != nil {
			lat := now - time.Duration(cv.Block.CreatedAt)
			s.latSum += lat
			if lat > s.latMax {
				s.latMax = lat
			}
			s.latCount++
			if len(s.lats) < 4096 {
				s.lats = append(s.lats, lat)
			}
			s.txs += cv.Block.TxCount()
		} else {
			// Outside the proposer's clan: the payload size
			// is protocol-fixed in this workload.
			s.txs += cfg.TxPerProposal
		}
	}
	mkNode := func(i int) *core.Node {
		id := types.NodeID(i)
		clk := net.Clock(id)
		var st store.Store
		if stores != nil {
			st = stores[i]
		}
		return core.New(core.Config{
			Self:             id,
			N:                cfg.N,
			Mode:             cfg.Mode,
			Clans:            clans,
			Key:              &keys[i],
			Reg:              reg,
			Costs:            costs,
			Blocks:           mempool.NewGenerator(id, cfg.TxPerProposal, txSize, true),
			LeadersPerRound:  cfg.LeadersPerRound,
			RoundTimeout:     cfg.RoundTimeout,
			Members:          cfg.Members,
			ReconfigDelay:    cfg.ReconfigDelay,
			GCDepth:          cfg.GCDepth,
			Store:            st,
			ExecQueue:        ExecQueue,
			Metrics:          regs[i],
			LeaderReputation: cfg.LeaderReputation,
			ReputationWindow: cfg.ReputationWindow,
			Deliver:          func(cv core.CommittedVertex) { measure(i, cv) },
		}, endpoints[i], clk)
	}
	for i := 0; i < cfg.N; i++ {
		nodes[i] = mkNode(i)
	}
	for _, n := range nodes {
		n.Start()
	}
	// Scheduled membership changes: sign under the deployment key universe
	// and submit to every node's pending queue at the scripted virtual time
	// (crashed incarnations lose their copy; survivors carry the tx).
	for _, rc := range cfg.Reconfigs {
		rc := rc
		net.Clock(0).After(rc.At, func() {
			tx := types.ReconfigTx{Action: rc.Action, Node: rc.Node, Addr: rc.Addr}
			core.SignReconfig(reg, &keys[rc.Node], &tx)
			for i := range nodes {
				nodes[i].SubmitReconfig(tx)
			}
		})
	}
	if cfg.Faults != nil {
		faults.Drive(*cfg.Faults, net.Clock(0), fnet, faults.Hooks{
			Crash: func(id types.NodeID) {
				nodes[id].Stop()
				storeErr = errors.Join(storeErr, stores[id].Close())
			},
			Restart: func(id types.NodeID, ev faults.Event) {
				// Damage the WAL as scripted, then rebuild the node through
				// store recovery on the same wrapped endpoint. A node whose
				// store fails stays down.
				err := faults.DamageWALTail(store.WALPath(dirs[id]), ev.Torn, ev.Arg)
				if err == nil {
					stores[id], err = store.Open(dirs[id], store.Options{})
				}
				if err != nil {
					storeErr = errors.Join(storeErr, err)
					return
				}
				nodeRes[id].Order, nodeRes[id].OrderedAtWarmup = nil, 0
				nodes[id] = mkNode(int(id))
				nodes[id].Start()
				fnet.Trace().Logf(net.Now(), "node %d recovered at round %d", id, nodes[id].Round())
			},
		})
	}
	net.RunUntil(measureEnd)
	// Drain the async execution stages before reading anything Deliver
	// wrote, then retire the executor goroutines.
	for _, n := range nodes {
		n.Flush()
	}
	snaps := make([]metrics.Snapshot, 0, cfg.N)
	for _, n := range nodes {
		snaps = append(snaps, n.PipelineSnapshot())
	}
	for _, n := range nodes {
		n.Stop()
	}

	res := Result{
		Mode:          cfg.Mode,
		N:             cfg.N,
		ClanSize:      clanSize,
		NumClans:      cfg.NumClans,
		TxPerProposal: cfg.TxPerProposal,
		Rounds:        int(nodes[0].Round()),
		BytesByKind:   map[types.MsgKind]uint64{},
		MsgsByKind:    map[types.MsgKind]uint64{},
	}
	for k, v := range net.TotalBytes() {
		res.BytesByKind[k] = v
		res.TotalBytes += v
	}
	for k, v := range net.TotalMsgs() {
		res.MsgsByKind[k] = v
	}
	res.BytesPerSec = float64(res.TotalBytes) / net.Now().Seconds()
	if fnet != nil {
		res.FaultTrace = fnet.Trace().String()
		for _, ep := range feps {
			res.FaultsDropped += ep.FaultStats().Dropped
		}
	}

	// Throughput: committed txs in the window at a reference node
	// (identical at every node by total order); average latency across all
	// nodes that observed payloads.
	var latSum time.Duration
	latCount := 0
	var all []time.Duration
	for i := range samples {
		latSum += samples[i].latSum
		latCount += samples[i].latCount
		if samples[i].latMax > res.MaxLatency {
			res.MaxLatency = samples[i].latMax
		}
		all = append(all, samples[i].lats...)
	}
	if latCount > 0 {
		res.AvgLatency = latSum / time.Duration(latCount)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		res.P50Latency = all[len(all)/2]
		res.P95Latency = all[len(all)*95/100]
	}
	res.OrderedTxs = samples[0].txs
	res.TPS = float64(res.OrderedTxs) / cfg.Measure.Seconds()
	res.Pipeline = metrics.Merge(snaps...)
	if h, ok := res.Pipeline.Hists["order.commit_latency"]; ok {
		res.CommitP50 = h.Quantile(0.50)
		res.CommitP95 = h.Quantile(0.95)
	}
	res.Order = order
	res.Epochs = nodes[0].EpochTable()
	for i, nd := range nodes {
		m := nd.MetricsSnapshot()
		res.ReputationOffenses += m.ReputationOffenses
		if nodeRes != nil {
			nodeRes[i].Epoch = nd.CurrentEpoch()
			nodeRes[i].Timeouts = m.Timeouts
			nodeRes[i].Offenses = m.ReputationOffenses
		}
	}
	res.Nodes = nodeRes
	res.Err = storeErr
	return res
}

// equivocationTap returns the fault layer's VAL observer: every VAL a node
// sends must carry one vertex digest per position, across crashes and
// restarts, because the write-ahead proposal record keeps a recovered node
// from proposing again in a round it already proposed in. A position seen
// with a second digest is recorded once, against its source.
func equivocationTap(nodes []NodeResult) func(from, to types.NodeID, m types.Message) {
	seen := map[types.Position]types.Hash{}
	return func(from, _ types.NodeID, m types.Message) {
		val, ok := m.(*types.ValMsg)
		if !ok || val.Vertex == nil || val.Vertex.Source != from {
			return // relayed and pulled vertices are judged at their source
		}
		pos, d := val.Vertex.Pos(), val.Vertex.DigestCached()
		eq := &nodes[from].Equivocations
		if prev, ok := seen[pos]; !ok {
			seen[pos] = d
		} else if prev != d && !slices.Contains(*eq, pos) {
			*eq = append(*eq, pos)
		}
	}
}
