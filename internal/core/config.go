// Package core implements the paper's contribution: DAG-based BFT SMR with
// clan-confined data dissemination. One engine provides three operating
// modes:
//
//   - ModeBaseline — Sailfish as published [S&P 25]: every party proposes a
//     vertex + transaction block each round, blocks are replicated to the
//     whole tribe through the two-round RBC. This is the protocol the paper
//     compares against.
//   - ModeSingleClan — Section 5: one clan is elected; only clan members
//     propose blocks; blocks travel to the clan alone via tribe-assisted
//     RBC merged with the vertex RBC (clan members ECHO only after holding
//     both vertex and block; the ECHO quorum requires >= f_c+1 clan votes).
//   - ModeMultiClan — Section 6: the tribe is partitioned into disjoint
//     clans; every party proposes, sending its block only to its own clan.
//
// The Sailfish consensus core (rounds, leaders, timeout and no-vote
// certificates, the 1-RBC+1δ leader commit rule, indirect commits over
// strong paths, deterministic total ordering) is identical across modes —
// exactly the paper's claim that the clan technique slots into existing
// RBC-based DAG protocols without touching their commit logic.
//
// # Staged commit pipeline
//
// The engine is organized as four explicit stages, each with its own state,
// file, and metrics namespace (see internal/metrics and types.Stage):
//
//	intake  (transport)      wire → verify pool → serialized mailbox
//	rbc     (stage_rbc.go)   merged vertex+block RBC: VAL/ECHO/cert/deliver
//	order   (stage_order.go) DAG insertion, leader commit rule, total order
//	exec    (stage_exec.go)  ordered vertices → the application's Deliver
//
// Stages intake–order run in the endpoint's serialized handler context under
// one mutex (the protocol state machine stays lock-free internally). The
// exec stage optionally runs on its own goroutine behind a bounded channel
// (Config.ExecQueue), so executing a multi-megabyte clan block never stalls
// vote handling — the backpressure contract is documented on ExecQueue.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/dag"
	"clanbft/internal/metrics"
	"clanbft/internal/store"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// Mode selects the dissemination topology.
type Mode int

const (
	// ModeBaseline replicates blocks to the entire tribe (Sailfish).
	ModeBaseline Mode = iota
	// ModeSingleClan confines blocks to one elected clan (Section 5).
	ModeSingleClan
	// ModeMultiClan partitions the tribe into clans, one per proposer
	// group (Section 6).
	ModeMultiClan
)

func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "sailfish"
	case ModeSingleClan:
		return "single-clan"
	case ModeMultiClan:
		return "multi-clan"
	}
	return "unknown"
}

// BlockSource supplies transaction payloads for proposals. NextBlock may
// return nil for an empty proposal; the engine fills Round/Source/CreatedAt.
type BlockSource interface {
	NextBlock(r types.Round) *types.Block
}

// CommittedVertex is one entry of the total order.
type CommittedVertex struct {
	Vertex *types.Vertex
	// Block is the vertex's payload; nil when this party is outside the
	// proposer's clan (it holds only the digest) or the vertex was empty.
	Block *types.Block
	// LeaderRound is the round of the committed leader whose ordering
	// emitted this vertex.
	LeaderRound types.Round
	// Direct reports whether that leader committed directly (2f+1 votes)
	// rather than via a strong path from a later leader.
	Direct bool
	// OrderedAt is the node's clock reading when the ordering stage handed
	// this vertex to the execution stage. With an async exec stage the
	// Deliver callback runs later on another goroutine; OrderedAt is the
	// deterministic commit timestamp (virtual time under simulation), so
	// measurement code must use it instead of reading the clock from the
	// callback.
	OrderedAt time.Duration
	// ProposedAt is the proposer's clock reading when the vertex was built
	// (Vertex.CreatedAt); OrderedAt-ProposedAt is the vertex's end-to-end
	// consensus latency, recorded in the order.commit_latency histogram.
	ProposedAt time.Duration
}

// Config parameterizes a consensus node.
type Config struct {
	Self types.NodeID
	N    int

	Mode Mode
	// Clans lists clan memberships: exactly one clan for ModeSingleClan,
	// the full partition for ModeMultiClan, unused for ModeBaseline.
	// These are epoch 0's clans; later epochs re-sample deterministically
	// from the member set (see internal/core/epoch.go).
	Clans [][]types.NodeID

	// Members lists the parties active in epoch 0; nil means all N. N is
	// the universe capacity (every party, active or not, holds a registry
	// key and a slot in bitmaps); non-members run as observers until a
	// committed ReconfigTx admits them at an epoch fence.
	Members []types.NodeID
	// ReconfigDelay is the gap D between a committed reconfiguration and
	// its fence: an epoch scheduled by the leader commit at round L starts
	// at round L+D+1. It doubles as the propose throttle — no party
	// proposes round r before processing a leader commit at round >= r-D —
	// which is what guarantees every proposer past a fence has already
	// installed the fence's epoch. Default 32, or 2f+2 where that is more.
	// With more than one anchor a round a value below 2f+2 is rejected
	// (anchorFenceFloor): a slot without a vote quorum is decided by an
	// anchor two rounds above it, so the commit frontier trails the
	// proposals it needs, and a tighter throttle stops the rounds that
	// would move it.
	ReconfigDelay types.Round
	// OnReconfig, when non-nil, is invoked each time an epoch is installed
	// (freshly scheduled or recovered from the store). It runs on the
	// serialized handler with the node lock held: implementations must not
	// call back into the Node, but may touch the transport (e.g. add dial
	// addresses for joined peers).
	OnReconfig func(EpochInfo)

	Key *crypto.KeyPair
	Reg *crypto.Registry
	// Costs models CPU; use crypto.ZeroCosts() for pure logic tests.
	Costs crypto.Costs
	// Store, when non-nil, persists delivered vertices and blocks.
	Store store.Store

	// Blocks supplies proposal payloads (nil proposes empty vertices).
	Blocks BlockSource
	// Deliver receives the total order, one committed vertex at a time.
	Deliver func(CommittedVertex)

	// ExecQueue selects the execution/commit stage's handoff:
	//
	//	0 (default): Deliver runs inline on the serialized handler, as a
	//	  synchronous fourth stage (legacy behavior — required for
	//	  single-threaded discrete-event tests that read results without a
	//	  flush barrier).
	//	>0: Deliver runs on a dedicated goroutine fed through a bounded
	//	  channel of this capacity. The backpressure contract: the
	//	  ordering stage NEVER blocks — when the channel is full,
	//	  committed vertices spill to an unbounded staging list (counted
	//	  in exec.backpressure and visible in exec.queue_depth) and are
	//	  refilled into the channel as the executor drains, preserving
	//	  commit order exactly. Consensus timing is therefore independent
	//	  of execution cost; a persistently growing exec.queue_depth is
	//	  the signal for the application to throttle its BlockSource.
	//
	// Call Node.Flush to wait for the stage to drain before reading
	// execution-side state; Node.Stop abandons undelivered entries (crash
	// semantics — recovery re-emits the order from the store).
	ExecQueue int

	// Metrics, when non-nil, is the registry all four pipeline stages
	// record into; nil gives the node a private registry. Either way
	// Node.PipelineMetrics returns it and Node.PipelineSnapshot reports
	// per-stage queue depths, occupancy, and latency histograms.
	Metrics *metrics.Registry

	// LeadersPerRound bounds how many vertices of a round are anchors —
	// vertices the commit rule applies to directly, 1 RBC + δ after their
	// proposal. Zero, the default, makes every leader-eligible member of
	// round r an anchor of round r, so every vertex commits on the 3δ path.
	// The count is clamped per round to the eligible set. Slot 0, the
	// primary, rotates one member per round and alone gates round
	// advancement (timeouts / no-vote certificates); the other slots commit
	// opportunistically under the same 2f+1-votes rule and are ordered
	// fate-driven (stage_order.go). An explicit 1 is single-leader Sailfish
	// with its certificate-backed chain walk — the configuration the paper's
	// figures use.
	LeadersPerRound int

	// LeaderReputation enables the Shoal++-style reputation schedule:
	// committed timeout/no-vote certificates ordered through the DAG
	// demote the offending leader from the rotation for ReputationWindow
	// rounds (see reputation.go). Off by default: the static round-robin
	// schedule is preserved byte-for-byte.
	LeaderReputation bool
	// ReputationWindow is the demotion length in rounds (default 64).
	ReputationWindow types.Round
	// AnchorWait caps the two holds that wait out a round's stragglers;
	// members that delivered nothing the round before are waited for by
	// neither. The echo hold keeps this party's echoes for its frontier
	// round queued until the round's last expected VAL is in, so that they
	// leave as one frame; the anchor hold keeps the next proposal back, once
	// the 2f+1 quorum (including the primary) is in, for the round's
	// remaining anchors, so that they too collect a vote from every proposer.
	// Each ends as soon as what it waits for is in. Zero means the default
	// of 5 ms; negative disables both (echoes leave at every drain end, the
	// round advances on quorum+primary).
	AnchorWait time.Duration

	// RoundTimeout bounds the wait for a round's leader vertex
	// (default 3 s).
	RoundTimeout time.Duration
	// GCDepth is how many rounds behind the last ordered leader round the
	// DAG retains (default 64).
	GCDepth int
}

// anchorFenceFloor is the smallest ReconfigDelay multi-anchor ordering is
// live with in a universe of n parties, f = (n-1)/3 of them faulty: 2f+2. A
// slot of round c whose quorum never forms is decided by slot 0 of round c+2
// (decideSlot); if that is a crashed member's, by slot 0 of round c+4; and so
// on through at most f of them, primaries two rounds apart. Meanwhile the
// commit frontier stands at c-1 or c, and leaving the last crashed primary's
// round, c+2f, on a timeout certificate needs round c+2f+1 inside the
// propose throttle, frontier+ReconfigDelay (rounds with a live primary pass
// on quorum evidence instead). Below the floor the throttle stops the very
// rounds whose proposals would move the frontier, for good.
// TestAnchorFenceFloor measures it: f members crashing mid-run, two apart in
// the rotation, stall n=5 at a ReconfigDelay of 2, n=7 at 4 and n=10 at 5;
// each runs on at its floor (4, 6, 8).
func anchorFenceFloor(n int) types.Round { return types.Round(2*((n-1)/3) + 2) }

func (c *Config) fill() {
	if c.N <= 0 {
		panic("core: N must be positive")
	}
	if c.Members == nil {
		c.Members = make([]types.NodeID, c.N)
		for i := range c.Members {
			c.Members[i] = types.NodeID(i)
		}
	} else {
		c.Members = append([]types.NodeID(nil), c.Members...)
		sort.Slice(c.Members, func(i, j int) bool { return c.Members[i] < c.Members[j] })
		for i, id := range c.Members {
			if int(id) >= c.N || (i > 0 && id == c.Members[i-1]) {
				panic("core: Members must be unique and within [0,N)")
			}
		}
	}
	if c.RoundTimeout == 0 {
		c.RoundTimeout = 3 * time.Second
	}
	if c.GCDepth == 0 {
		c.GCDepth = 64
	}
	if c.LeadersPerRound <= 0 {
		// Every eligible member anchors (anchorsAt clamps N to the round's
		// eligible set).
		c.LeadersPerRound = c.N
	}
	floor := types.Round(1)
	if c.LeadersPerRound > 1 {
		floor = anchorFenceFloor(c.N)
	}
	if c.ReconfigDelay == 0 {
		c.ReconfigDelay = max(32, floor)
	} else if c.ReconfigDelay < floor {
		panic(fmt.Sprintf("core: ReconfigDelay %d is below %d, the least that %d anchors a round order under with N=%d (see anchorFenceFloor); raise it or set LeadersPerRound to 1",
			c.ReconfigDelay, floor, c.LeadersPerRound, c.N))
	}
	if c.AnchorWait == 0 {
		c.AnchorWait = 5 * time.Millisecond
	}
	if c.ReputationWindow == 0 {
		c.ReputationWindow = 64
	}
	switch c.Mode {
	case ModeSingleClan:
		if len(c.Clans) != 1 || len(c.Clans[0]) == 0 {
			panic("core: ModeSingleClan requires exactly one non-empty clan")
		}
	case ModeMultiClan:
		if len(c.Clans) < 1 {
			panic("core: ModeMultiClan requires clans")
		}
	}
}

// Node is one consensus party. All entry points (message handling, timers,
// Start) must run in the endpoint's serialized context; the engine installs
// itself as the endpoint handler via Start.
type Node struct {
	// mu serializes every entry point (message handler, timer callbacks,
	// Start) with external accessors (Round, Metrics). Under the
	// simulator all entries already run on one goroutine; under real
	// transports the mailbox serializes handler calls but Start and the
	// monitoring accessors run on caller goroutines. The async exec stage
	// runs outside mu entirely (it only consumes immutable committed
	// vertices).
	mu sync.Mutex

	cfg Config
	ep  transport.Endpoint
	clk transport.Clock
	// drainHook records that ep calls endDrain (see Start); without it
	// handle flushes the echo queue itself on every return.
	drainHook bool

	// epochs is the membership/clan topology table, oldest first. Entry 0
	// covers the oldest retained round; every quorum, leader, and clan
	// lookup resolves through epochOf(round). Trimmed by gcEpochs.
	epochs []*epochState
	// lastCommitRound is the round of the last leader commit this party
	// processed in drainCommits. It drives the propose throttle (see
	// Config.ReconfigDelay) and is re-derived during recovery replay.
	lastCommitRound types.Round
	// pendingReconfig holds submitted membership transactions awaiting
	// inclusion in this party's next proposal.
	pendingReconfig []types.ReconfigTx
	// recovering suppresses round advancement while the store replay runs
	// (drainCommits fires mid-replay and must not propose).
	recovering bool

	dag *dag.DAG

	// The pipeline stages. rbc owns the per-position RBC instance state
	// (the vinst map); ord owns DAG ordering and commit state; exec is nil
	// in synchronous mode (Deliver inline on the handler).
	rbc  rbcState
	ord  orderState
	exec *execStage

	// Round progression (view state shared by the rbc and order stages).
	round          types.Round // highest round proposed
	maxQuorumRound types.Round // highest round with 2f+1 delivered incl. leader
	started        bool
	stopped        bool // Stop called: ignore handlers and late timer fires
	roundTimer     transport.Timer
	// roundFired, anchorFired and echoFired are the three timers' callbacks,
	// bound once; valTo is sendVal's recipient scratch.
	roundFired, anchorFired, echoFired func()
	valTo                              []types.NodeID
	timedOutRound                      map[types.Round]bool

	// Timeout/no-vote certificate assembly.
	timeoutAggs map[types.Round]*crypto.Aggregator
	tcs         map[types.Round]*types.TimeoutCert
	novoteAggs  map[types.Round]*crypto.Aggregator
	nvcs        map[types.Round]*types.NoVoteCert

	// rep is the committed-evidence reputation table (reputation.go).
	rep repState

	// Pipelined-anchor pacing state (AnchorWait > 0): anchorWaived is 1 +
	// the round whose pacing timer expired (advance without the missing
	// anchors; only the frontier round is ever held, so one suffices);
	// anchorHeldAt is when the running hold began (order.anchor_hold
	// observes it when the hold ends).
	anchorWaived     types.Round
	anchorTimer      transport.Timer
	anchorTimerRound types.Round
	anchorHolding    bool
	anchorHeldAt     time.Duration
	// echoTimer bounds the running echo hold (stage_rbc.go), which began at
	// echoHeldAt.
	echoTimer  transport.Timer
	echoHeldAt time.Duration

	// wb is the reusable write batch for store persistence. Writes go
	// through Batch.PutOwned with freshly marshaled buffers (ownership
	// transfers to the store, no deep copies) and flush as one atomic
	// Apply — a single WAL record and, on Disk stores with SyncEvery, a
	// single group-commit fsync per flush.
	wb store.Batch

	// reg is the unified metrics registry; the m* fields cache hot-path
	// instrument pointers.
	reg           *metrics.Registry
	mIntakeMsgs   *metrics.Counter
	mIntakeLat    *metrics.Histogram
	mRBCDelivered *metrics.Counter
	mRBCLat       *metrics.Histogram
	mOrderCommits *metrics.Counter
	mOrderVerts   *metrics.Counter
	mOrderLat     *metrics.Histogram
	mCommitLat    *metrics.Histogram
	mAnchorGap    *metrics.Histogram
	mAnchorHold   *metrics.Histogram
	mEchoHold     *metrics.Histogram
	mSlotsDirect  *metrics.Counter
	mSlotsIndir   *metrics.Counter
	mSlotsSkipped *metrics.Counter
	mExecDone     *metrics.Counter
	mExecTxs      *metrics.Counter
	mExecDeliver  *metrics.Histogram
	mDagVerts     *metrics.Counter
	mDagEdges     *metrics.Counter
	// Block cache exits: evicted once executed here and held by the whole
	// clan, expired at the GC horizon.
	mBlocksEvicted *metrics.Counter
	mBlocksExpired *metrics.Counter

	// Metrics is the legacy counter struct, retained as a compatibility
	// view; PipelineSnapshot is the unified interface.
	Metrics Metrics
}

type leaderCommit struct {
	pos    types.Position
	direct bool
	seq    uint64 // slot sequence: round*N + slot index (see slotSeq)
}

// Metrics exposes counters the harness reads after a run.
type Metrics struct {
	VerticesProposed  int
	VerticesDelivered int
	VerticesOrdered   int
	BlocksProposed    int
	BlocksReceived    int
	TxsOrdered        int
	DirectCommits     int
	IndirectCommits   int
	// SlotsDirect/SlotsIndirect/SlotsSkipped classify every anchor slot the
	// total order has passed, exactly once each: ordered on its own vote
	// quorum, ordered by the indirect rule (a strong path from a later
	// anchor), or passed over. A skipped slot and a late one look the same
	// in the latency tail; these tell them apart.
	SlotsDirect   int
	SlotsIndirect int
	SlotsSkipped  int
	Timeouts      int
	// ReputationOffenses counts committed timeout/no-vote evidence folded
	// into the leader schedule (0 unless LeaderReputation is on).
	ReputationOffenses int
	LastOrderedRound   types.Round
}

// New creates a consensus node bound to an endpoint and clock.
func New(cfg Config, ep transport.Endpoint, clk transport.Clock) *Node {
	cfg.fill()
	n := &Node{
		cfg: cfg,
		ep:  ep,
		clk: clk,
		dag: dag.New(cfg.N),
		rbc: rbcState{
			insts:     map[types.Round]*rbcRow{},
			blocks:    map[types.Hash]cachedBlock{},
			echoWait:  map[types.Position][]types.Position{},
			batchSeen: map[types.Position]bool{},
		},
		ord: orderState{
			anchors:       map[types.Round]*anchorRound{},
			memo:          map[uint64]slotDecision{},
			late:          make([]types.Round, cfg.N),
			pendingInsert: map[types.Position]pendingVertex{},
			waitingChild:  map[types.Position][]types.Position{},
			commitWait:    map[types.Position]bool{},
			lateVertices:  map[types.Position]*types.Vertex{},
			pulls:         map[types.Position]bool{},
		},
		timedOutRound: map[types.Round]bool{},
		timeoutAggs:   map[types.Round]*crypto.Aggregator{},
		tcs:           map[types.Round]*types.TimeoutCert{},
		novoteAggs:    map[types.Round]*crypto.Aggregator{},
		nvcs:          map[types.Round]*types.NoVoteCert{},
	}
	n.rep.offenseSeen = map[types.Round]bool{}
	n.roundFired, n.anchorFired, n.echoFired = n.roundTimerFired, n.anchorTimerFired, n.echoTimerFired
	// Epoch 0: the configured clans over the configured member set
	// (ModeBaseline gets one implicit clan containing every member). Later
	// epochs re-sample clans from the committed member set.
	clans := n.cfg.Clans
	if cfg.Mode == ModeBaseline {
		clans = [][]types.NodeID{n.cfg.Members}
	}
	n.epochs = []*epochState{n.buildEpochState(0, 0, 0, n.cfg.Members, clans)}
	n.initMetrics()
	if cfg.ExecQueue > 0 {
		n.exec = newExecStage(cfg.Deliver, cfg.ExecQueue, n.reg)
	}
	return n
}

// initMetrics wires the node's registry: hot-path instruments for the four
// stages, plus a snapshot collector that adapts the transport and store
// compatibility Stats views into the unified namespace and samples the
// stage queue depths.
func (n *Node) initMetrics() {
	reg := n.cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	n.reg = reg
	n.mIntakeMsgs = reg.Counter(types.StageIntake.Metric("msgs"))
	n.mIntakeLat = reg.Histogram(types.StageIntake.Metric("latency"))
	n.mRBCDelivered = reg.Counter(types.StageRBC.Metric("delivered"))
	n.mRBCLat = reg.Histogram(types.StageRBC.Metric("latency"))
	n.mBlocksEvicted = reg.Counter(types.StageRBC.Metric("blocks_evicted"))
	n.mBlocksExpired = reg.Counter(types.StageRBC.Metric("blocks_expired"))
	n.mEchoHold = reg.Histogram(types.StageRBC.Metric("echo_hold"))
	reg.Gauge(types.StageRBC.Metric("blocks_cached"))
	reg.Gauge(types.StageRBC.Metric("block_bytes_cached"))
	n.mOrderCommits = reg.Counter(types.StageOrder.Metric("commits"))
	n.mOrderVerts = reg.Counter(types.StageOrder.Metric("vertices"))
	n.mOrderLat = reg.Histogram(types.StageOrder.Metric("latency"))
	// The latency spine: commit_latency is proposal stamp → ordered (the
	// end-to-end consensus latency of each vertex); anchor_gap is the time
	// between consecutive leader-anchor resolutions in drainCommits (small
	// gaps = pipelined anchors, RoundTimeout-sized gaps = stalls).
	n.mCommitLat = reg.Histogram("order.commit_latency")
	n.mAnchorGap = reg.Histogram("order.anchor_gap")
	// Slot outcomes (see Metrics.SlotsDirect) and how long tryAdvance
	// actually held proposals for late anchors.
	n.mSlotsDirect = reg.Counter("order.slots_direct")
	n.mSlotsIndir = reg.Counter("order.slots_indirect")
	n.mSlotsSkipped = reg.Counter("order.slots_skipped")
	n.mAnchorHold = reg.Histogram("order.anchor_hold")
	reg.Counter("order.work")
	// The full exec metric schema is registered here, once, for BOTH
	// wirings — the synchronous inline path and the async execStage share
	// one set of names, so snapshots are comparable across modes.
	// exec.queue_wait (push→dequeue) and exec.deliver (callback wall time)
	// replace the old exec.latency, which conflated the two.
	n.mExecDone = reg.Counter(types.StageExec.Metric("committed"))
	n.mExecTxs = reg.Counter(types.StageExec.Metric("txs"))
	reg.Histogram(types.StageExec.Metric("queue_wait"))
	n.mExecDeliver = reg.Histogram(types.StageExec.Metric("deliver"))
	reg.Counter(types.StageExec.Metric("backpressure"))
	// Queue-depth gauges exist even before the first snapshot samples them.
	reg.Gauge(types.StageExec.Metric("queue_depth"))
	// DAG shape: exact edge/vertex counters incremented on insert, plus two
	// snapshot-derived ratio gauges. parents_per_vertex is scaled x100
	// (integer gauge; 5012 means 50.12 parents on average) so fractions
	// survive integer truncation. bytes_per_commit
	// divides total transport bytes sent by vertices ordered on this node;
	// both ratios are per-node views (merging snapshots across a cluster
	// sums them, so read them from single-node snapshots).
	n.mDagVerts = reg.Counter("dag.vertices")
	n.mDagEdges = reg.Counter("dag.edges")
	reg.Gauge("dag.parents_per_vertex")
	reg.Gauge("transport.bytes_per_commit")
	reg.OnSnapshot(func(s *metrics.Snapshot) {
		st := n.ep.Stats()
		s.SetGauge(types.StageIntake.Metric("queue_depth"), int64(st.HandlerQueue))
		s.SetGauge(types.StageIntake.Metric("verify_pending"), int64(st.VerifyPending))
		s.SetCounter(types.StageIntake.Metric("verify_queued"), st.VerifyQueued)
		s.SetCounter(types.StageIntake.Metric("verify_rejected"), st.VerifyRejected)
		s.SetCounter("transport.msgs_sent", st.MsgsSent)
		s.SetCounter("transport.bytes_sent", st.BytesSent)
		s.SetCounter("transport.msgs_recv", st.MsgsRecv)
		s.SetCounter("transport.bytes_recv", st.BytesRecv)
		s.SetCounter("transport.msgs_dropped", st.MsgsDropped)
		s.SetCounter("transport.rx_alloc_bytes", st.RxAllocBytes)
		s.SetCounter("transport.coalesced_frames", st.CoalescedFrames)
		s.SetCounter("transport.flushes", st.Flushes)
		if verts := n.mDagVerts.Load(); verts > 0 {
			s.SetGauge("dag.parents_per_vertex", int64(100*n.mDagEdges.Load()/verts))
		}
		if ordered := n.mOrderVerts.Load(); ordered > 0 {
			s.SetGauge("transport.bytes_per_commit", int64(st.BytesSent/ordered))
		}
		n.mu.Lock()
		live := 0
		for _, row := range n.rbc.insts {
			for i := range row.at {
				if row.at[i].live {
					live++
				}
			}
		}
		s.SetGauge(types.StageRBC.Metric("queue_depth"), int64(live))
		s.SetGauge(types.StageRBC.Metric("blocks_cached"), int64(len(n.rbc.blocks)))
		s.SetGauge(types.StageRBC.Metric("block_bytes_cached"), int64(n.rbc.blockBytes))
		s.SetGauge(types.StageOrder.Metric("queue_depth"),
			int64(n.ord.out.len()+len(n.ord.pendingInsert)+len(n.ord.pendingLeaders)))
		// Structural ordering work: edges tallied, fates evaluated, DAG
		// edges walked. Machine-independent, so perfbench can gate it.
		s.SetCounter("order.work", n.ord.work+n.dag.Steps)
		n.mu.Unlock()
		if n.cfg.Store != nil {
			if d, ok := n.cfg.Store.(*store.Disk); ok {
				ds := d.Stats()
				s.SetCounter("store.records", ds.Records)
				s.SetCounter("store.groups", ds.Groups)
				s.SetCounter("store.syncs", ds.Syncs)
				s.SetCounter("store.bytes", ds.Bytes)
			}
		}
	})
}

// blockClanAt returns the clan that receives proposer's round-r blocks, or
// NoClan if that proposer carries no payload in round r's epoch.
func (n *Node) blockClanAt(r types.Round, proposer types.NodeID) types.ClanID {
	ep := n.epochOf(r)
	switch n.cfg.Mode {
	case ModeBaseline:
		if !ep.isMember[proposer] {
			return types.NoClan
		}
		return 0
	case ModeSingleClan:
		if ep.clanOf[proposer] == 0 {
			return 0
		}
		return types.NoClan // non-clan parties propose empty vertices
	default: // ModeMultiClan
		return ep.clanOf[proposer]
	}
}

// anchorsAt returns how many anchor slots round r has: LeadersPerRound,
// clamped to the round's leader-eligible set (the epoch member list minus
// parties demoted by committed reputation evidence). It is a function of the
// round, not a constant: a demotion or a smaller epoch shrinks it, and slots
// at or past it do not exist.
func (n *Node) anchorsAt(r types.Round) int {
	return min(n.cfg.LeadersPerRound, len(n.eligibleAt(r)))
}

// leaderAt returns the member in slot k of round r (k < anchorsAt(r)). Slot
// k of round r is eligible member (r+k) mod M: the primary advances one
// member per round whatever the slot count — so a crashed member is primary
// once per M rounds, never pinned there — and the round's slots are M-distinct
// members. Every member proposes vertices in every mode, so every eligible
// member can anchor.
func (n *Node) leaderAt(r types.Round, k int) types.NodeID {
	ms := n.eligibleAt(r)
	return ms[(uint64(r)+uint64(k))%uint64(len(ms))]
}

// leader returns round r's primary leader — the one gating round
// advancement, timeouts, and no-vote certificates.
func (n *Node) leader(r types.Round) types.NodeID { return n.leaderAt(r, 0) }

// leaderIdx returns which anchor slot of its round the position occupies, or
// -1 if it is not an anchor.
func (n *Node) leaderIdx(pos types.Position) int {
	ms := n.eligibleAt(pos.Round)
	mi, ok := slices.BinarySearch(ms, pos.Source)
	if !ok {
		return -1
	}
	M := uint64(len(ms))
	k := (uint64(mi) + M - uint64(pos.Round)%M) % M
	if k < uint64(n.anchorsAt(pos.Round)) {
		return int(k)
	}
	return -1
}

// slotSeq linearizes anchor slots round-major, slot-minor, with the fixed
// stride N: a round never has more than N slots, so sequence numbers stay
// comparable across rounds whose slot counts differ.
func (n *Node) slotSeq(pos types.Position, idx int) uint64 {
	return uint64(pos.Round)*uint64(n.cfg.N) + uint64(idx)
}

// slotPos inverts slotSeq for an existing slot.
func (n *Node) slotPos(seq uint64) types.Position {
	r := types.Round(seq / uint64(n.cfg.N))
	return types.Position{Round: r, Source: n.leaderAt(r, int(seq%uint64(n.cfg.N)))}
}

// nextSlot returns the first existing slot at or after seq: seq itself, or
// slot 0 of the following round when seq's index is past its round's anchors.
func (n *Node) nextSlot(seq uint64) uint64 {
	N := uint64(n.cfg.N)
	if r := seq / N; seq%N >= uint64(n.anchorsAt(types.Round(r))) {
		return (r + 1) * N
	}
	return seq
}

// Round returns the highest round this party has proposed in.
func (n *Node) Round() types.Round {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.round
}

// MetricsSnapshot returns a consistent copy of the node's legacy counters.
func (n *Node) MetricsSnapshot() Metrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.Metrics
}

// PipelineMetrics returns the node's metrics registry (shared with the
// caller when Config.Metrics was set).
func (n *Node) PipelineMetrics() *metrics.Registry { return n.reg }

// PipelineSnapshot reports the unified per-stage metrics view: queue depths,
// latency histograms, and throughput counters for intake, rbc, order, and
// exec, plus the transport and store compatibility counters. Do not call it
// from inside a Deliver callback running in synchronous mode (it takes the
// node's lock to sample queue depths).
func (n *Node) PipelineSnapshot() metrics.Snapshot { return n.reg.Snapshot() }

// DAG exposes the node's DAG (read-only use by tests and tools; callers
// must not use it concurrently with a running node).
func (n *Node) DAG() *dag.DAG { return n.dag }
