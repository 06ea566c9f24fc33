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
//	rbc     (stage_rbc.go)   merged vertex+block RBC: internal/rbc's rule; echo frames, block cache, pulls
//	order   (stage_order.go) DAG insertion; internal/order's commit rule and total order
//	exec    (stage_exec.go)  ordered vertices → the application's Deliver
//
// Stages intake–order run under one mutex, which every input takes in one
// place: step, the node's one entry point (only Start, Stop and the
// read-only accessors take it elsewhere). Every input is one step — a
// verified message from the endpoint's serialized mailbox, a drain end, a
// round, anchor-hold or echo-hold timer fire, a pull retry, a reconfig
// submission — run against one clock reading (the protocol state machine
// stays lock-free internally).
// The exec stage runs on its own goroutine behind one queue that never
// blocks the handler, so executing a multi-megabyte clan block never stalls
// vote handling — the handoff is documented in stage_exec.go.
package core

import (
	"sync"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/dag"
	"clanbft/internal/metrics"
	"clanbft/internal/order"
	"clanbft/internal/rbc"
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
	// this vertex to the execution stage. The Deliver callback runs later on
	// the execution goroutine; OrderedAt is the deterministic commit
	// timestamp (virtual time under simulation), so measurement code must
	// use it instead of reading the clock from the callback.
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

	// Params are the settings the library and the simulator pass through
	// unchanged: epoch-0 members, ReconfigDelay, the reputation schedule and
	// RoundTimeout.
	Params

	// OnReconfig, when non-nil, is invoked each time an epoch is installed
	// (freshly scheduled or recovered from the store). It runs on the
	// serialized handler with the node lock held: implementations must not
	// call back into the Node, but may touch the transport (e.g. add dial
	// addresses for joined peers).
	OnReconfig func(EpochInfo)

	// Key is this party's signing key: every node holds one, observers too
	// (they sign nothing a quorum counts). Reg holds everyone's public keys.
	Key *crypto.KeyPair
	Reg *crypto.Registry
	// Costs models CPU; use crypto.ZeroCosts() for pure logic tests.
	Costs crypto.Costs
	// Store, when non-nil, persists delivered vertices and blocks.
	Store store.Store

	// Blocks supplies proposal payloads (nil proposes empty vertices).
	Blocks BlockSource
	// Deliver receives the total order, one committed vertex at a time, on
	// the node's execution goroutine (stage_exec.go). Call Node.Flush before
	// reading what it produced.
	Deliver func(CommittedVertex)

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
	// opportunistically under the same 2f+1-votes rule. It sets only the
	// slot count: every count is ordered by one rule (internal/order). An
	// explicit 1 is single-leader Sailfish — the configuration the paper's
	// figures use — whose leaders without a quorum that rule decides from
	// the next committed leader (decideSlot's one-round reach), as the
	// paper's chain walk does.
	LeadersPerRound int

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
// each runs on at its floor (4, 6, 8). With one anchor a round there is no
// such lag: every slot is a primary's, and decideSlot's one-round reach
// decides a slot without a quorum from the next round's primary, so fill
// asks only for a ReconfigDelay of 1.
func anchorFenceFloor(n int) types.Round { return types.Round(2*((n-1)/3) + 2) }

// anchorWait caps the two holds that wait out a round's stragglers; members
// that delivered nothing the round before are waited for by neither. The
// echo hold keeps this party's echoes for its frontier round queued until
// the round's last expected VAL is in, so that they leave as one frame; the
// anchor hold keeps the next proposal back, once the 2f+1 quorum (including
// the primary) is in, for the round's remaining anchors, so that they too
// collect a vote from every proposer. Each ends as soon as what it waits for
// is in.
const anchorWait = 5 * time.Millisecond

func (c *Config) fill() {
	if c.N <= 0 {
		panic("core: N must be positive")
	}
	if c.GCDepth == 0 {
		c.GCDepth = 64
	}
	if c.LeadersPerRound <= 0 {
		// Every eligible member anchors (order.Anchors clamps N to the
		// round's eligible set).
		c.LeadersPerRound = c.N
	}
	c.Params.fill(c.N, c.LeadersPerRound)
	switch c.Mode {
	case ModeBaseline:
		c.Clans = nil // the member set is the one clan
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

// Node is one consensus party. Its inputs (messages, drain ends, timers,
// reconfig submissions) all enter through step; the engine installs itself as
// the endpoint handler via Start.
type Node struct {
	// mu serializes step, Start and Stop with external accessors (Round,
	// Metrics). Under the simulator all inputs already run on one goroutine;
	// under real transports the mailbox serializes handler calls and timer
	// fires but Start, SubmitReconfig and the monitoring accessors run on
	// caller goroutines. The exec stage runs outside mu entirely (it only
	// consumes immutable committed vertices).
	mu sync.Mutex
	// now is the clock reading of the running step (or Start, Stop): one
	// step sees one time.
	now time.Duration

	cfg Config
	ep  transport.Endpoint
	clk transport.Clock

	// epochs is the membership/clan topology table, oldest first. Entry 0
	// covers the oldest retained round; every quorum, leader, and clan
	// lookup resolves through epochOf(round). Trimmed by gcEpochs.
	epochs []*epochState
	// lastCommitRound is the round of the last anchor this party ordered.
	// It drives the propose throttle (see Config.ReconfigDelay) and is
	// re-derived during recovery replay.
	lastCommitRound types.Round
	// pendingReconfig holds submitted membership transactions awaiting
	// inclusion in this party's next proposal.
	pendingReconfig []types.ReconfigTx
	// recovering suppresses round advancement while the store replay runs
	// (drainCommits fires mid-replay and must not propose).
	recovering bool

	dag *dag.DAG

	// The pipeline stages. rbc owns the per-position RBC instances (the
	// rule's table), the block cache and the echo queue; ord owns DAG
	// insertion and the out queue, order the
	// commit rule, its slot cursor and the leader schedule; exec runs
	// Deliver on its own goroutine.
	rbc   rbcState
	ord   orderState
	order *order.Orderer
	exec  *execStage

	// Round progression (view state shared by the rbc and order stages).
	round          types.Round // highest round proposed
	maxQuorumRound types.Round // highest round with 2f+1 delivered incl. leader
	started        bool
	stopped        bool // Stop called: step drops every input
	roundTimer     transport.Timer
	// roundFired, anchorFired and echoFired are the three timers' callbacks,
	// bound to step once; valTo is sendVal's recipient scratch.
	roundFired, anchorFired, echoFired func()
	valTo                              []types.NodeID
	// ownVertices, ownEdges, vals and blockVals are the slabs propose and
	// sendVal carve this party's vertices, their strong edges and its VALs
	// from (a VAL with a block from blockVals), as a connection's decoder
	// carves received ones: none costs an allocation of its own.
	ownVertices     types.Slab[types.Vertex]
	ownEdges        types.Slab[types.VertexRef]
	vals, blockVals types.Slab[types.ValMsg]

	// views holds each round's view-change record (consensus.go).
	views map[types.Round]*view

	// Pipelined-anchor pacing state: anchorWaived is 1 + the round whose
	// pacing timer expired (advance without the missing anchors; only the
	// frontier round is ever held, so one suffices); anchorHeldAt is when
	// the running hold began (order.anchor_hold observes it when the hold
	// ends).
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
	mDagVerts     *metrics.Counter
	mDagEdges     *metrics.Counter
	// Block cache exits: evicted once executed here and held by the whole
	// clan, expired at the GC horizon.
	mBlocksEvicted *metrics.Counter
	mBlocksExpired *metrics.Counter
	// mPulls counts the pulls sent, retries included;
	// mEchoFrames the ECHO frames this party sent.
	mPulls, mEchoFrames *metrics.Counter

	// Metrics is the legacy counter struct, retained as a compatibility
	// view; PipelineSnapshot is the unified interface. Read it through
	// MetricsSnapshot, which fills in the fields the registry counts.
	Metrics Metrics
}

// Metrics exposes counters the harness reads after a run.
type Metrics struct {
	VerticesProposed  int
	VerticesDelivered int
	VerticesOrdered   int
	BlocksProposed    int
	BlocksReceived    int
	TxsOrdered        int
	// DirectCommits, IndirectCommits and SlotsSkipped classify every anchor
	// slot the total order has passed, exactly once each: ordered on its own
	// vote quorum, ordered by the indirect rule (a strong path from a later
	// anchor), or passed over. A skipped slot and a late one look the same
	// in the latency tail; these tell them apart.
	DirectCommits   int
	IndirectCommits int
	SlotsSkipped    int
	Timeouts        int
	// ReputationOffenses counts committed timeout/no-vote evidence folded
	// into the leader schedule (0 unless LeaderReputation is on).
	ReputationOffenses int
	LastOrderedRound   types.Round
}

// New creates a consensus node bound to an endpoint and clock.
func New(cfg Config, ep transport.Endpoint, clk transport.Clock) *Node {
	if cfg.Key == nil {
		panic("core: Config.Key must be set")
	}
	cfg.fill()
	n := &Node{
		cfg: cfg,
		ep:  ep,
		clk: clk,
		dag: dag.New(cfg.N),
		rbc: rbcState{
			blocks:    map[types.Hash]cachedBlock{},
			echoQ:     make([]types.EchoEntry, 0, cfg.N),
			batchSeen: map[types.Position]bool{},
		},
		ord: orderState{
			pendingInsert: map[types.Position]pendingVertex{},
			waitingChild:  map[types.Position][]types.Position{},
			lateVertices:  map[types.Position]*types.Vertex{},
		},
		views: map[types.Round]*view{},
	}
	n.roundFired = func() { n.step(input{kind: inRoundTimer}) }
	n.anchorFired = func() { n.step(input{kind: inAnchorTimer}) }
	n.echoFired = func() { n.step(input{kind: inEchoTimer}) }
	// Epoch 0: the configured clans over the configured member set. Later
	// epochs re-sample clans from the committed member set.
	n.epochs = []*epochState{n.buildEpochState(0, 0, 0, n.cfg.Members, n.cfg.Clans)}
	n.rbc.Table = rbc.New(rbc.Config{N: cfg.N, Self: cfg.Self, Reg: cfg.Reg, EpochOf: n.ruleEpoch}, (*slot).stop)
	n.order = order.New(order.Config{
		N: cfg.N, LeadersPerRound: cfg.LeadersPerRound,
		Reputation: cfg.LeaderReputation, ReconfigDelay: cfg.ReconfigDelay, ReputationWindow: cfg.ReputationWindow,
		EpochOf: func(r types.Round) *order.Epoch { return &n.epochOf(r).Epoch },
	}, n.dag)
	n.initMetrics()
	n.exec = newExecStage(cfg.Deliver, n.reg)
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
	n.mPulls = reg.Counter(types.StageRBC.Metric("pulls"))
	n.mEchoFrames = reg.Counter(types.StageRBC.Metric("echo_frames"))
	n.mEchoHold = reg.Histogram(types.StageRBC.Metric("echo_hold"))
	reg.Gauge(types.StageRBC.Metric("blocks_cached"))
	reg.Gauge(types.StageRBC.Metric("block_bytes_cached"))
	n.mOrderCommits = reg.Counter(types.StageOrder.Metric("commits"))
	n.mOrderVerts = reg.Counter(types.StageOrder.Metric("vertices"))
	n.mOrderLat = reg.Histogram(types.StageOrder.Metric("latency"))
	// The latency spine: commit_latency is proposal stamp → ordered (the
	// end-to-end consensus latency of each vertex); anchor_gap is the time
	// between consecutive ordered anchors (small gaps = pipelined anchors,
	// RoundTimeout-sized gaps = stalls).
	n.mCommitLat = reg.Histogram("order.commit_latency")
	n.mAnchorGap = reg.Histogram("order.anchor_gap")
	// Slot outcomes (see Metrics.DirectCommits) and how long tryAdvance
	// actually held proposals for late anchors.
	n.mSlotsDirect = reg.Counter("order.slots_direct")
	n.mSlotsIndir = reg.Counter("order.slots_indirect")
	n.mSlotsSkipped = reg.Counter("order.slots_skipped")
	n.mAnchorHold = reg.Histogram("order.anchor_hold")
	reg.Counter("order.work")
	// The exec stage's instruments are registered by newExecStage.
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
		n.rbc.Range(func(types.Position, *inst) { live++ })
		s.SetGauge(types.StageRBC.Metric("queue_depth"), int64(live))
		s.SetGauge(types.StageRBC.Metric("blocks_cached"), int64(len(n.rbc.blocks)))
		s.SetGauge(types.StageRBC.Metric("block_bytes_cached"), int64(n.rbc.blockBytes))
		s.SetGauge(types.StageOrder.Metric("queue_depth"), int64(n.ord.out.Len()+len(n.ord.pendingInsert)))
		// Structural ordering work: edges tallied, fates evaluated, DAG
		// edges walked. Machine-independent, so perfbench can gate it.
		s.SetCounter("order.work", n.order.Work()+n.dag.Steps)
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

// Round returns the highest round this party has proposed in.
func (n *Node) Round() types.Round {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.round
}

// MetricsSnapshot returns a consistent copy of the node's legacy counters.
// The five that count what a registry counter already counts are read from
// it: rbc.delivered, order.vertices and the order.slots_* outcomes.
func (n *Node) MetricsSnapshot() Metrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := n.Metrics
	m.VerticesDelivered = int(n.mRBCDelivered.Load())
	m.VerticesOrdered = int(n.mOrderVerts.Load())
	m.DirectCommits = int(n.mSlotsDirect.Load())
	m.IndirectCommits = int(n.mSlotsIndir.Load())
	m.SlotsSkipped = int(n.mSlotsSkipped.Load())
	return m
}

// PipelineMetrics returns the node's metrics registry (shared with the
// caller when Config.Metrics was set).
func (n *Node) PipelineMetrics() *metrics.Registry { return n.reg }

// PipelineSnapshot reports the unified per-stage metrics view: queue depths,
// latency histograms, and throughput counters for intake, rbc, order, and
// exec, plus the transport and store compatibility counters.
func (n *Node) PipelineSnapshot() metrics.Snapshot { return n.reg.Snapshot() }

// DAG exposes the node's DAG (read-only use by tests and tools; callers
// must not use it concurrently with a running node).
func (n *Node) DAG() *dag.DAG { return n.dag }
