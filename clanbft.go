// Package clanbft is a DAG-based BFT state machine replication library with
// clan-confined data dissemination, implementing "Towards Improving
// Throughput and Scalability of DAG-based BFT SMR" (EuroSys 2026).
//
// The library runs Sailfish-style DAG consensus in three modes:
//
//   - ModeSailfish: the baseline — every party replicates every transaction
//     block to the whole network.
//   - ModeSingleClan: one randomly sampled honest-majority sub-committee
//     (clan) receives, stores, and executes all payloads; the rest of the
//     network (the tribe) carries only metadata and vote traffic.
//   - ModeMultiClan: the tribe is partitioned into disjoint clans, each
//     disseminating and executing its own proposers' payloads.
//
// Quick start (in-process cluster):
//
//	cluster, _ := clanbft.NewCluster(clanbft.Options{N: 4})
//	cluster.OnCommit(0, func(c clanbft.Commit) { fmt.Println(c.Vertex.Round) })
//	cluster.Start()
//	cluster.Submit([]byte("tx"))
//	...
//	cluster.Stop()
//
// For simulated geo-distributed experiments, see internal/harness via the
// cmd/bench tool; for real-socket deployments, see NewTCPNode and
// cmd/clanbft.
package clanbft

import (
	"fmt"

	"clanbft/internal/committee"
	"clanbft/internal/core"
	"clanbft/internal/crypto"
	"clanbft/internal/mempool"
	"clanbft/internal/metrics"
	"clanbft/internal/store"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// Mode selects the dissemination topology.
type Mode = core.Mode

// Operating modes.
const (
	ModeSailfish   = core.ModeBaseline
	ModeSingleClan = core.ModeSingleClan
	ModeMultiClan  = core.ModeMultiClan
)

// NodeID identifies a party.
type NodeID = types.NodeID

// Commit is one entry of the total order.
type Commit = core.CommittedVertex

// ReconfigTx is a signed membership transaction (join or leave). It is
// committed through the total order like any transaction; when ordered it
// schedules an epoch fence at which the clan sampler re-runs over the new
// member set. See core.EpochInfo and DESIGN.md "Epoch reconfiguration".
type ReconfigTx = types.ReconfigTx

// Reconfiguration actions.
const (
	ReconfigJoin  = types.ReconfigJoin
	ReconfigLeave = types.ReconfigLeave
)

// EpochInfo describes one epoch: its fence round, member set, and clans.
type EpochInfo = core.EpochInfo

// Params are the protocol settings the library, the simulator and every
// node share: epoch-0 Members, ReconfigDelay, the reputation schedule and
// RoundTimeout. See core.Params for each one's meaning and default.
type Params = core.Params

// Options configures a cluster.
type Options struct {
	// N is the number of parties (minimum 4).
	N int
	// Mode selects the protocol (default ModeSailfish).
	Mode Mode
	// ClanSize overrides the single clan's size; zero solves for the
	// smallest clan whose dishonest-majority probability is at most 1e-6,
	// the paper's setting (see PlanClanSize).
	ClanSize int
	// NumClans partitions the tribe in ModeMultiClan (default 2).
	NumClans int
	// MaxTxPerBlock bounds how many queued transactions one proposal
	// drains (default 1000).
	MaxTxPerBlock int
	// Deprecated: ignored; OnCommit always runs on the node's execution
	// goroutine.
	ExecQueue int
	// StoreDir persists consensus state under this directory (one
	// subdirectory per node); empty keeps everything in memory.
	StoreDir string
	// Seed drives deterministic key generation and clan sampling.
	Seed int64
	// Params are the settings every node is given as they are. Members
	// (nil = all N) is the epoch-0 member set; N stays the universe
	// capacity: every party holds a key and may join later through a
	// committed ReconfigTx, and non-members run as observers that track the
	// DAG until a fence admits them. A ReconfigDelay below 2f+2,
	// f = (N-1)/3, is rejected at construction.
	Params
}

// clanFailureProb bounds the probability that a sampled single clan has a
// dishonest majority: 1e-6, the paper's evaluation setting.
const clanFailureProb = 1e-6

func (o *Options) fill() error {
	if o.N < 4 {
		return fmt.Errorf("clanbft: need at least 4 parties, got %d", o.N)
	}
	if o.MaxTxPerBlock == 0 {
		o.MaxTxPerBlock = 1000
	}
	if o.ClanSize == 0 {
		o.ClanSize = PlanClanSize(o.N, clanFailureProb)
	}
	if o.NumClans == 0 {
		o.NumClans = 2
	}
	return nil
}

// PlanClanSize returns the smallest clan size for a tribe of n parties with
// f = floor((n-1)/3) Byzantine such that the sampled clan has an honest
// majority except with probability at most failureProb.
func PlanClanSize(n int, failureProb float64) int {
	f := committee.MaxFaulty(n)
	return committee.MinClanSizeStrict(n, f, committee.RatFromFloat(failureProb))
}

// PlanMultiClanFailure returns the probability that partitioning n parties
// into q equal clans yields at least one clan with a dishonest majority.
func PlanMultiClanFailure(n, q int) float64 {
	f := committee.MaxFaulty(n)
	return committee.Float(committee.MultiClanFailureProb(n, f, committee.EqualPartitionSizes(n, q)))
}

// genesis is the deployment's epoch 0, a pure function of the options, so
// every party of a deployment derives the same keys and clans.
func (o *Options) genesis() core.Genesis {
	return core.NewGenesis(o.Seed, o.N, o.Mode, o.Members, o.ClanSize, o.NumClans, nil)
}

// nodeConfig is the core.Config NewCluster and NewTCPNode both start from:
// every protocol setting is passed in this one place, so neither constructor
// can drop one. Anchors, holds and pull pacing are core's defaults. Deliver
// fans each committed vertex out to the callbacks registered in *onCommit, in
// registration order. Callers add what is theirs: block source, store and
// reconfiguration hook.
func (o *Options) nodeConfig(self NodeID, g *core.Genesis, onCommit *[]func(Commit)) core.Config {
	return core.Config{
		Self:   self,
		N:      o.N,
		Mode:   o.Mode,
		Clans:  g.Clans,
		Params: o.Params,
		Key:    &g.Keys[self],
		Reg:    g.Reg,
		Costs:  crypto.ZeroCosts(),
		Deliver: func(cv core.CommittedVertex) {
			for _, fn := range *onCommit {
				fn(cv)
			}
		},
	}
}

// Cluster is an in-process cluster of consensus nodes connected by
// channels, running on the wall clock. It is intended for applications that
// embed replicated state machines, for tests, and for the examples; use
// NewTCPNode for multi-process deployments.
type Cluster struct {
	opts         Options
	net          *transport.ChanNet
	nodes        []*core.Node
	pools        []*mempool.Pool
	genesis      core.Genesis
	stores       []store.Store
	vpool        *crypto.VerifyPool
	onCommit     [][]func(Commit)
	started      bool
	submitCursor int
}

// NewCluster builds (but does not start) an in-process cluster.
func NewCluster(o Options) (*Cluster, error) {
	if err := o.fill(); err != nil {
		return nil, err
	}
	c := &Cluster{
		opts:     o,
		net:      transport.NewChanNet(o.N),
		genesis:  o.genesis(),
		onCommit: make([][]func(Commit), o.N),
		pools:    make([]*mempool.Pool, o.N),
	}
	// One GOMAXPROCS-wide pool fronts every node's mailbox: signatures
	// verify in parallel across cores, handlers apply already-verified
	// messages in order.
	c.vpool = crypto.NewVerifyPool(0, 0)

	for i := 0; i < o.N; i++ {
		id := types.NodeID(i)
		c.pools[i] = mempool.NewPool(o.MaxTxPerBlock)
		cfg := o.nodeConfig(id, &c.genesis, &c.onCommit[i])
		cfg.Blocks = c.pools[i]
		if o.StoreDir != "" {
			disk, err := store.Open(fmt.Sprintf("%s/node%03d", o.StoreDir, i), store.Options{})
			if err != nil {
				return nil, fmt.Errorf("clanbft: open store: %w", err)
			}
			cfg.Store = disk
			c.stores = append(c.stores, disk)
		}
		node := core.New(cfg, c.net.Endpoint(id), c.net.Clock(id))
		c.nodes = append(c.nodes, node)
		c.net.Endpoint(id).(transport.VerifyingEndpoint).SetVerifier(node.Verifier(), c.vpool)
	}
	return c, nil
}

// OnCommit registers a callback receiving node i's total order. Must be
// called before Start. Callbacks run on the node's execution goroutine,
// behind a queue that never blocks the consensus handler, so they may block
// freely: an expensive callback (block execution) never stalls vote
// handling, and commit order is preserved exactly.
func (c *Cluster) OnCommit(i int, fn func(Commit)) {
	if c.started {
		panic("clanbft: OnCommit after Start")
	}
	c.onCommit[i] = append(c.onCommit[i], fn)
}

// Start launches every node.
func (c *Cluster) Start() {
	c.started = true
	for _, n := range c.nodes {
		n.Start()
	}
}

// Submit queues a transaction at a block-proposing party (round-robin over
// proposers). Returns the party it was routed to. Clients in clan-based
// modes send transactions to clan members only — exactly the paper's client
// interaction model. tx is valid only for the call: the pool queues a copy,
// so the caller may reuse the slice once Submit returns.
func (c *Cluster) Submit(tx []byte) NodeID {
	proposers := c.Proposers()
	id := proposers[c.submitCursor%len(proposers)]
	c.submitCursor++
	c.pools[id].Submit(tx)
	return id
}

// SubmitTo queues a transaction at a specific party's pool. Like Submit, it
// copies tx, which is valid only for the call.
func (c *Cluster) SubmitTo(id NodeID, tx []byte) {
	c.pools[id].Submit(tx)
}

// Proposers lists the parties allowed to propose transaction blocks in the
// configured mode (epoch 0; later epochs re-sample, see EpochTable).
func (c *Cluster) Proposers() []NodeID {
	if c.opts.Mode == ModeSingleClan {
		return append([]NodeID(nil), c.genesis.Clans[0]...)
	}
	return append([]NodeID(nil), c.opts.MemberSet(c.opts.N)...)
}

// SubmitReconfig signs a membership transaction with the affected party's
// key and queues it at every node for inclusion in the next proposals. The
// change takes effect at the epoch fence scheduled when the transaction
// commits; EpochTable shows the resulting membership and clans.
func (c *Cluster) SubmitReconfig(action types.ReconfigAction, id NodeID, addr string) {
	tx := ReconfigTx{Action: action, Node: id, Addr: addr}
	core.SignReconfig(c.genesis.Reg, &c.genesis.Keys[id], &tx)
	for _, n := range c.nodes {
		n.SubmitReconfig(tx)
	}
}

// SubmitJoin admits party id at the next epoch fence. In-process clusters
// have no dial addresses; a synthetic one satisfies the wire format.
func (c *Cluster) SubmitJoin(id NodeID) {
	c.SubmitReconfig(ReconfigJoin, id, fmt.Sprintf("mem://%d", id))
}

// SubmitLeave retires party id at the next epoch fence.
func (c *Cluster) SubmitLeave(id NodeID) {
	c.SubmitReconfig(ReconfigLeave, id, "")
}

// EpochTable returns node i's retained epochs, oldest first.
func (c *Cluster) EpochTable(i int) []EpochInfo { return c.nodes[i].EpochTable() }

// CurrentEpoch returns the epoch governing node i's current round.
func (c *Cluster) CurrentEpoch(i int) uint64 { return c.nodes[i].CurrentEpoch() }

// Clans returns the clan composition (nil for ModeSailfish).
func (c *Cluster) Clans() [][]NodeID {
	out := make([][]NodeID, len(c.genesis.Clans))
	for i, cl := range c.genesis.Clans {
		out[i] = append([]NodeID(nil), cl...)
	}
	return out
}

// ClanOf returns the clan index executing id's payloads, or -1.
func (c *Cluster) ClanOf(id NodeID) int {
	for ci, cl := range c.genesis.Clans {
		for _, m := range cl {
			if m == id {
				return ci
			}
		}
	}
	if c.opts.Mode == ModeSailfish {
		return 0
	}
	return -1
}

// ClanFaultBound returns f_c for clan ci (how many clan members may fail
// while clients still get f_c+1 matching responses).
func (c *Cluster) ClanFaultBound(ci int) int {
	if c.opts.Mode == ModeSailfish {
		return committee.ClanMaxFaulty(c.opts.N)
	}
	return committee.ClanMaxFaulty(len(c.genesis.Clans[ci]))
}

// Registry exposes the cluster's public-key registry (for verifying
// execution responses with the execution package).
func (c *Cluster) Registry() *crypto.Registry { return c.genesis.Reg }

// Keys returns node i's key pair (examples wire executors with it).
func (c *Cluster) Keys(i int) *crypto.KeyPair { return &c.genesis.Keys[i] }

// Metrics returns node i's consensus counters.
func (c *Cluster) Metrics(i int) core.Metrics { return c.nodes[i].MetricsSnapshot() }

// PipelineMetrics returns node i's unified pipeline metrics snapshot:
// per-stage queue depths, occupancy, and latency histograms for
// intake/rbc/order/exec, plus transport and store counters.
func (c *Cluster) PipelineMetrics(i int) metrics.Snapshot {
	return c.nodes[i].PipelineSnapshot()
}

// Round returns node i's current round.
func (c *Cluster) Round(i int) types.Round { return c.nodes[i].Round() }

// Stop shuts the cluster down: drains pending commit deliveries, stops
// every node (cancelling timers and retiring the execution goroutines),
// then closes the network, verify pool, and stores.
func (c *Cluster) Stop() {
	for _, n := range c.nodes {
		n.Flush()
	}
	for _, n := range c.nodes {
		n.Stop()
	}
	c.net.Close()
	c.vpool.Close()
	for _, st := range c.stores {
		st.Close()
	}
}
