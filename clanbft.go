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
// Quick start (n nodes in one process, on loopback sockets):
//
//	cluster, _ := clanbft.NewCluster(clanbft.Options{N: 4})
//	cluster.Node(0).OnCommit(func(c clanbft.Commit) { fmt.Println(c.Vertex.Round) })
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
	"slices"

	"clanbft/internal/committee"
	"clanbft/internal/core"
	"clanbft/internal/crypto"
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

// Cluster is n TCPNodes of one deployment in one process, each listening on
// its own loopback port, running on the wall clock. It is intended for
// applications that embed replicated state machines, for tests, and for the
// examples. It holds what is about the deployment as a whole — epoch 0,
// routing submissions to proposers, clan bounds — and Node(i) is everything
// about one party; use NewTCPNode directly for multi-process deployments.
type Cluster struct {
	nodes        []*TCPNode
	genesis      core.Genesis
	submitCursor int
}

// NewCluster builds (but does not start) a cluster: n TCPNodes bound to
// 127.0.0.1:0, each told the others' bound addresses before any of them
// starts. With StoreDir set, node i persists under StoreDir/node%03d.
func NewCluster(o Options) (*Cluster, error) {
	if err := o.fill(); err != nil {
		return nil, err
	}
	c := &Cluster{genesis: o.genesis()}
	book := map[NodeID]string{}
	for i := 0; i < o.N; i++ {
		book[NodeID(i)] = "127.0.0.1:0"
	}
	for i := 0; i < o.N; i++ {
		no := TCPNodeOptions{Self: NodeID(i), Addrs: book, Options: o}
		if o.StoreDir != "" {
			no.StoreDir = fmt.Sprintf("%s/node%03d", o.StoreDir, i)
		}
		nd, err := newTCPNode(no, c.genesis)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		for j, peer := range c.nodes {
			nd.SetPeerAddr(NodeID(j), peer.Addr())
		}
	}
	return c, nil
}

// Node returns party i.
func (c *Cluster) Node(i int) *TCPNode { return c.nodes[i] }

// Start launches every node.
func (c *Cluster) Start() {
	for _, n := range c.nodes {
		n.Start()
	}
}

// opts returns the options every node was built with.
func (c *Cluster) opts() *Options { return &c.nodes[0].opts.Options }

// Submit queues a transaction at a block-proposing party (round-robin over
// proposers). Returns the party it was routed to. Clients in clan-based
// modes send transactions to clan members only — exactly the paper's client
// interaction model. tx is valid only for the call: the pool queues a copy,
// so the caller may reuse the slice once Submit returns.
func (c *Cluster) Submit(tx []byte) NodeID {
	proposers := c.Proposers()
	id := proposers[c.submitCursor%len(proposers)]
	c.submitCursor++
	c.nodes[id].Submit(tx)
	return id
}

// Proposers lists the parties allowed to propose transaction blocks in the
// configured mode (epoch 0; later epochs re-sample, see TCPNode.EpochTable).
func (c *Cluster) Proposers() []NodeID {
	o := c.opts()
	if o.Mode == ModeSingleClan {
		return append([]NodeID(nil), c.genesis.Clans[0]...)
	}
	return append([]NodeID(nil), o.MemberSet(o.N)...)
}

// SubmitReconfig signs a membership transaction with the affected party's
// key and queues it at every node for inclusion in the next proposals. The
// change takes effect at the epoch fence scheduled when the transaction
// commits; TCPNode.EpochTable shows the resulting membership and clans.
func (c *Cluster) SubmitReconfig(action types.ReconfigAction, id NodeID, addr string) {
	tx := ReconfigTx{Action: action, Node: id, Addr: addr}
	core.SignReconfig(c.genesis.Reg, &c.genesis.Keys[id], &tx)
	for _, n := range c.nodes {
		n.SubmitReconfig(tx)
	}
}

// SubmitJoin admits party id, at its bound address, at the next epoch fence.
func (c *Cluster) SubmitJoin(id NodeID) {
	c.SubmitReconfig(ReconfigJoin, id, c.nodes[id].Addr())
}

// SubmitLeave retires party id at the next epoch fence.
func (c *Cluster) SubmitLeave(id NodeID) {
	c.SubmitReconfig(ReconfigLeave, id, "")
}

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
		if slices.Contains(cl, id) {
			return ci
		}
	}
	if c.opts().Mode == ModeSailfish {
		return 0
	}
	return -1
}

// ClanFaultBound returns f_c for clan ci (how many clan members may fail
// while clients still get f_c+1 matching responses).
func (c *Cluster) ClanFaultBound(ci int) int {
	return clanFaultBound(c.genesis.Clans, ci, c.opts().N)
}

// clanFaultBound is f_c of clans[ci], or of the whole tribe of n parties
// when there are no clans (ModeSailfish).
func clanFaultBound(clans [][]NodeID, ci, n int) int {
	if len(clans) == 0 {
		return committee.ClanMaxFaulty(n)
	}
	return committee.ClanMaxFaulty(len(clans[ci]))
}

// Registry exposes the cluster's public-key registry (for verifying
// execution responses with the execution package).
func (c *Cluster) Registry() *crypto.Registry { return c.genesis.Reg }

// Keys returns node i's key pair (examples wire executors with it).
func (c *Cluster) Keys(i int) *crypto.KeyPair { return &c.genesis.Keys[i] }

// Stop shuts the cluster down: drains every node's pending commit
// deliveries, then closes every node (engine, endpoint, verify pool, store).
func (c *Cluster) Stop() {
	for _, n := range c.nodes {
		n.node.Flush()
	}
	for _, n := range c.nodes {
		n.Close()
	}
}
