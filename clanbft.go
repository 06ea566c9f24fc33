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
	"time"

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
	// RoundTimeout bounds the wait for a round leader (default 3 s).
	RoundTimeout time.Duration
	// ExecQueue decouples commit delivery from the consensus handler:
	// when > 0, OnCommit callbacks run on a dedicated execution goroutine
	// behind a bounded queue of this capacity, so an expensive callback
	// (block execution) never stalls vote handling. The handoff never
	// blocks and preserves commit order exactly. 0 (default) runs
	// callbacks inline on the handler goroutine, where they must not
	// block.
	ExecQueue int
	// StoreDir persists consensus state under this directory (one
	// subdirectory per node); empty keeps everything in memory.
	StoreDir string
	// Seed drives deterministic key generation and clan sampling.
	Seed int64
	// Members lists the parties active in epoch 0 (nil = all N). N stays
	// the universe capacity: every party holds a key and may join later
	// through a committed ReconfigTx; non-members run as observers that
	// track the DAG until a fence admits them.
	Members []NodeID
	// ReconfigDelay is the round gap between a committed ReconfigTx and
	// its epoch fence (default 32, or 2f+2 where that is more; tests use
	// smaller values to cross fences quickly). A value below 2f+2,
	// f = (N-1)/3, is rejected at construction: see
	// core.Config.ReconfigDelay.
	ReconfigDelay types.Round
	// LeaderReputation enables the reputation-driven leader schedule:
	// committed timeout/no-vote evidence demotes repeat offenders from
	// the rotation for ReputationWindow rounds (default 64), keeping the
	// anchor path away from crashed or slow parties. Deterministic:
	// every node derives the identical schedule from the total order.
	LeaderReputation bool
	// ReputationWindow is the demotion length in rounds (default 64).
	ReputationWindow types.Round
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
	if o.RoundTimeout == 0 {
		o.RoundTimeout = 3 * time.Second
	}
	if o.Mode == ModeMultiClan && o.NumClans == 0 {
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

// sampleClans draws the epoch-0 clan composition the options describe (nil
// for ModeSailfish): a pure function of the options, so every party of a
// deployment lands on the same clans.
func (o *Options) sampleClans() [][]types.NodeID {
	switch o.Mode {
	case ModeSingleClan:
		size := o.ClanSize
		if size == 0 {
			size = PlanClanSize(o.N, clanFailureProb)
		}
		if o.Members != nil {
			return [][]types.NodeID{committee.SampleClanMembers(o.Members, min(size, len(o.Members)), o.Seed+2)}
		}
		return [][]types.NodeID{committee.SampleClan(o.N, size, o.Seed+2)}
	case ModeMultiClan:
		if o.Members != nil {
			return committee.PartitionMembers(o.Members, o.NumClans, o.Seed+2)
		}
		return committee.PartitionClans(o.N, o.NumClans, o.Seed+2)
	}
	return nil
}

// nodeConfig is the core.Config NewCluster and NewTCPNode both start from:
// every protocol option is passed in this one place, so neither constructor
// can drop one. Anchors, holds and pull pacing are core's defaults. Deliver
// fans each committed vertex out to the callbacks registered in *onCommit, in
// registration order. Callers add what is theirs: block source, store and
// reconfiguration hook.
func (o *Options) nodeConfig(self NodeID, key *crypto.KeyPair, reg *crypto.Registry, clans [][]types.NodeID, onCommit *[]func(Commit)) core.Config {
	return core.Config{
		Self:             self,
		N:                o.N,
		Mode:             o.Mode,
		Clans:            clans,
		Key:              key,
		Reg:              reg,
		Costs:            crypto.ZeroCosts(),
		RoundTimeout:     o.RoundTimeout,
		ExecQueue:        o.ExecQueue,
		Members:          o.Members,
		ReconfigDelay:    o.ReconfigDelay,
		LeaderReputation: o.LeaderReputation,
		ReputationWindow: o.ReputationWindow,
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
	clans        [][]types.NodeID
	keys         []crypto.KeyPair
	reg          *crypto.Registry
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
		net:      transport.NewChanNet(o.N, 0),
		keys:     crypto.GenerateKeys(o.N, uint64(o.Seed)+1),
		onCommit: make([][]func(Commit), o.N),
		pools:    make([]*mempool.Pool, o.N),
	}
	c.reg = crypto.NewRegistry(c.keys, true)
	c.clans = o.sampleClans()
	// One GOMAXPROCS-wide pool fronts every node's mailbox: signatures
	// verify in parallel across cores, handlers apply already-verified
	// messages in order.
	c.vpool = crypto.NewVerifyPool(0, 0)

	for i := 0; i < o.N; i++ {
		id := types.NodeID(i)
		c.pools[i] = mempool.NewPool(o.MaxTxPerBlock)
		cfg := o.nodeConfig(id, &c.keys[i], c.reg, c.clans, &c.onCommit[i])
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
// called before Start. With Options.ExecQueue == 0 callbacks run on the
// node's handler goroutine and must not block; with ExecQueue > 0 they run
// on the node's execution goroutine and may block freely.
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
// interaction model.
func (c *Cluster) Submit(tx []byte) NodeID {
	proposers := c.Proposers()
	id := proposers[c.submitCursor%len(proposers)]
	c.submitCursor++
	c.pools[id].Submit(tx)
	return id
}

// SubmitTo queues a transaction at a specific party's pool.
func (c *Cluster) SubmitTo(id NodeID, tx []byte) {
	c.pools[id].Submit(tx)
}

// Proposers lists the parties allowed to propose transaction blocks in the
// configured mode (epoch 0; later epochs re-sample, see EpochTable).
func (c *Cluster) Proposers() []NodeID {
	if c.opts.Mode == ModeSingleClan {
		return append([]NodeID(nil), c.clans[0]...)
	}
	if c.opts.Members != nil {
		return append([]NodeID(nil), c.opts.Members...)
	}
	out := make([]NodeID, c.opts.N)
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// SubmitReconfig signs a membership transaction with the affected party's
// key and queues it at every node for inclusion in the next proposals. The
// change takes effect at the epoch fence scheduled when the transaction
// commits; EpochTable shows the resulting membership and clans.
func (c *Cluster) SubmitReconfig(action types.ReconfigAction, id NodeID, addr string) {
	tx := ReconfigTx{Action: action, Node: id, Addr: addr}
	core.SignReconfig(c.reg, &c.keys[id], &tx)
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
	out := make([][]NodeID, len(c.clans))
	for i, cl := range c.clans {
		out[i] = append([]NodeID(nil), cl...)
	}
	return out
}

// ClanOf returns the clan index executing id's payloads, or -1.
func (c *Cluster) ClanOf(id NodeID) int {
	for ci, cl := range c.clans {
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
	return committee.ClanMaxFaulty(len(c.clans[ci]))
}

// Registry exposes the cluster's public-key registry (for verifying
// execution responses with the execution package).
func (c *Cluster) Registry() *crypto.Registry { return c.reg }

// Keys returns node i's key pair (examples wire executors with it).
func (c *Cluster) Keys(i int) *crypto.KeyPair { return &c.keys[i] }

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

// Stop shuts the cluster down: drains pending commit deliveries (when
// ExecQueue > 0), stops every node (cancelling timers and retiring the
// execution goroutines), then closes the network, verify pool, and stores.
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
