package clanbft

import (
	"bytes"
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

// TCPNodeOptions configures one real-socket consensus node. Every node in
// the deployment must share N, Mode, clan parameters, and Seed (keys and
// clan sampling are derived deterministically from the seed so that a
// deployment can be bootstrapped without a key-exchange ceremony; a
// production deployment would load per-party keys from a PKI instead).
type TCPNodeOptions struct {
	Self  NodeID
	Addrs map[NodeID]string // full address book, including Self
	Options
}

// TCPNode is a single consensus party bound to a TCP endpoint.
type TCPNode struct {
	ep       *transport.TCPEndpoint
	node     *core.Node
	pool     *mempool.Pool
	vpool    *crypto.VerifyPool
	st       store.Store
	clans    [][]types.NodeID
	opts     TCPNodeOptions
	onCommit []func(Commit)
	started  bool
}

// NewTCPNode creates (but does not start) a node listening on
// Addrs[Self].
func NewTCPNode(o TCPNodeOptions) (*TCPNode, error) {
	if err := o.fill(); err != nil {
		return nil, err
	}
	// The address book needs this party and every epoch-0 member; parties
	// that join later are dialed once their committed ReconfigTx advertises
	// an address (core's OnReconfig feeds transport.AddPeer).
	if _, ok := o.Addrs[o.Self]; !ok {
		return nil, fmt.Errorf("clanbft: address book missing self %d", o.Self)
	}
	members := o.Members
	if members == nil {
		members = make([]NodeID, o.N)
		for i := range members {
			members[i] = NodeID(i)
		}
	}
	for _, id := range members {
		if _, ok := o.Addrs[id]; !ok {
			return nil, fmt.Errorf("clanbft: address book missing epoch-0 member %d", id)
		}
	}
	keys := crypto.GenerateKeys(o.N, uint64(o.Seed)+1)
	reg := crypto.NewRegistry(keys, true)
	ep, err := transport.NewTCPEndpoint(o.Self, o.Addrs)
	if err != nil {
		return nil, err
	}
	n := &TCPNode{ep: ep, clans: o.sampleClans(), opts: o, pool: mempool.NewPool(o.MaxTxPerBlock)}
	if o.StoreDir != "" {
		disk, err := store.Open(o.StoreDir, store.Options{})
		if err != nil {
			ep.Close()
			return nil, err
		}
		n.st = disk
	}
	n.vpool = crypto.NewVerifyPool(0, 0)
	cfg := o.nodeConfig(o.Self, &keys[o.Self], reg, n.clans, &n.onCommit)
	cfg.Blocks, cfg.Store = n.pool, n.st
	// Installed epochs admit joined peers to the transport layer so
	// Broadcast reaches them and their handshakes are accepted.
	cfg.OnReconfig = func(info core.EpochInfo) {
		for id, addr := range info.Joins {
			if id != o.Self {
				ep.AddPeer(id, addr)
			}
		}
	}
	n.node = core.New(cfg, ep, ep.Clock())
	ep.SetVerifier(n.node.Verifier(), n.vpool)
	return n, nil
}

// Addr returns the bound listen address.
func (n *TCPNode) Addr() string { return n.ep.Addr() }

// OnCommit registers a total-order callback. Must precede Start.
func (n *TCPNode) OnCommit(fn func(Commit)) {
	if n.started {
		panic("clanbft: OnCommit after Start")
	}
	n.onCommit = append(n.onCommit, fn)
}

// Start begins participating in consensus.
func (n *TCPNode) Start() {
	n.started = true
	n.node.Start()
}

// Submit queues a transaction for this node's next proposal. Only block
// proposers (clan members in single-clan mode) include payloads; submitting
// elsewhere queues transactions that will never be proposed.
func (n *TCPNode) Submit(tx []byte) { n.pool.Submit(tx) }

// Clans returns the deployment's clan composition.
func (n *TCPNode) Clans() [][]NodeID { return n.clans }

// FaultBound returns f_c for this node's clan — the number of clan members
// that may fail while clients still obtain f_c+1 matching read responses.
func (n *TCPNode) FaultBound() int {
	for _, cl := range n.clans {
		for _, m := range cl {
			if m == n.opts.Self {
				return committee.ClanMaxFaulty(len(cl))
			}
		}
	}
	return committee.ClanMaxFaulty(n.opts.N)
}

// SetPeerAddr updates one peer's dial address before traffic flows to it.
// This is the ":0" bootstrap choreography: create every node with
// placeholder addresses, read the real ones off Addr(), exchange them, fix
// the books with SetPeerAddr, then Start.
func (n *TCPNode) SetPeerAddr(id NodeID, addr string) { n.ep.SetPeerAddr(id, addr) }

// Metrics returns the node's consensus counters.
func (n *TCPNode) Metrics() core.Metrics { return n.node.MetricsSnapshot() }

// PipelineMetrics returns the node's unified pipeline metrics snapshot
// (per-stage queue depths and latency histograms plus transport counters).
func (n *TCPNode) PipelineMetrics() metrics.Snapshot { return n.node.PipelineSnapshot() }

// Round returns the node's current round.
func (n *TCPNode) Round() types.Round { return n.node.Round() }

// Stats returns transport-level traffic counters.
func (n *TCPNode) Stats() transport.Stats { return n.ep.Stats() }

// Close shuts the node down: drains pending commit deliveries (ExecQueue
// > 0), stops the consensus engine, then closes the endpoint, verify pool,
// and store.
func (n *TCPNode) Close() error {
	n.node.Flush()
	n.node.Stop()
	err := n.ep.Close()
	// After the endpoint: read loops must stop submitting first.
	n.vpool.Close()
	if n.st != nil {
		if cerr := n.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// WaitRound blocks until the node passes round r or the timeout elapses,
// returning whether the round was reached (convenience for tests/tools).
func (n *TCPNode) WaitRound(r types.Round, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.node.Round() >= r {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return n.node.Round() >= r
}

// SubmitReconfig queues a signed membership transaction for inclusion in
// this node's next proposal. Build and sign it with SignReconfigTx (or a
// real PKI in production).
func (n *TCPNode) SubmitReconfig(tx ReconfigTx) { n.node.SubmitReconfig(tx) }

// EpochTable returns the node's retained epochs, oldest first.
func (n *TCPNode) EpochTable() []EpochInfo { return n.node.EpochTable() }

// CurrentEpoch returns the epoch governing the node's current round.
func (n *TCPNode) CurrentEpoch() uint64 { return n.node.CurrentEpoch() }

// SignReconfigTx builds a signed membership transaction under the
// deployment's deterministic key universe (n parties, seed as in Options).
// The affected party's own key signs: a join is a self-attestation carrying
// the dial address the new party will listen on.
func SignReconfigTx(n int, seed int64, action types.ReconfigAction, id NodeID, addr string) ReconfigTx {
	keys := crypto.GenerateKeys(n, uint64(seed)+1)
	reg := crypto.NewRegistry(keys, true)
	tx := ReconfigTx{Action: action, Node: id, Addr: addr}
	core.SignReconfig(reg, &keys[id], &tx)
	return tx
}

// FetchSnapshot bootstraps a joining (or lagging) node's store from a
// running donor: it binds a throwaway endpoint on o.Addrs[o.Self], requests
// a point-in-time snapshot (KindSnapReq), and restores the stream into
// o.StoreDir, from which NewTCPNode + Start recover — replaying the snapshot
// plus any WAL suffix instead of re-running the whole protocol history.
//
// The donor replies over its own outbound connection, so this party's
// address must already be in the donor's book: for a joiner that happens
// the moment its committed ReconfigTx installs (AddPeer). Call before
// NewTCPNode; the temporary endpoint is closed so the real node can rebind
// the same address.
func FetchSnapshot(o TCPNodeOptions, donor NodeID, timeout time.Duration) error {
	if o.StoreDir == "" {
		return fmt.Errorf("clanbft: FetchSnapshot needs StoreDir")
	}
	donorAddr, ok := o.Addrs[donor]
	if !ok {
		return fmt.Errorf("clanbft: no address for donor %d", donor)
	}
	ep, err := transport.NewTCPEndpoint(o.Self, map[NodeID]string{
		o.Self: o.Addrs[o.Self],
		donor:  donorAddr,
	})
	if err != nil {
		return err
	}
	defer ep.Close()
	got := make(chan []byte, 1)
	ep.SetHandler(func(from types.NodeID, m types.Message) {
		if rsp, ok := m.(*types.SnapRspMsg); ok && from == donor {
			select {
			case got <- rsp.Data:
			default:
			}
		}
	})
	// Re-request on an interval: the first SnapReq can race the donor
	// learning this party's address from the committed join.
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(timeout)
	ep.Send(donor, &types.SnapReqMsg{})
	for {
		select {
		case data := <-got:
			return store.Restore(o.StoreDir, bytes.NewReader(data))
		case <-tick.C:
			ep.Send(donor, &types.SnapReqMsg{})
		case <-deadline:
			return fmt.Errorf("clanbft: snapshot fetch from %d timed out", donor)
		}
	}
}
