package clanbft

import (
	"clanbft/internal/gateway"
	"clanbft/internal/metrics"
)

// Gateway is the client-facing serving front door (see internal/gateway):
// a TCP listener accepting framed client submissions, applying two-layer
// admission control (per-client token buckets + global backpressure keyed
// off the true mempool depth and the exec stage's queue-wait signal),
// answering reads with f_c+1 response aggregation, and streaming commit
// notifications back to clients.
type Gateway = gateway.Gateway

// GatewayLimits is the admission-control configuration.
type GatewayLimits = gateway.Limits

// GatewayStateReader answers versioned point reads for the gateway's f_c+1
// read aggregation (execution.Executor.GetVersioned satisfies it via
// GatewayReaderFunc).
type GatewayStateReader = gateway.StateReader

// GatewayReaderFunc adapts a closure to GatewayStateReader.
type GatewayReaderFunc = gateway.StateReaderFunc

// GatewayOptions configures a gateway serving one node. Read deadlines and the
// transaction size cap are the gateway's defaults: an aggregated read waits
// 1 s, a frame's bytes 2 min, and a transaction is at most 64 KiB.
type GatewayOptions struct {
	// Addr is the client-facing TCP listen address ("127.0.0.1:0" in
	// tests; the bound address is Gateway.Addr()).
	Addr string
	// Limits is the admission-control configuration (zero = defaults).
	Limits GatewayLimits
	// Responders serve the f_c+1 read path, conventionally one per clan
	// member's executor, the local node's first. Nil disables reads.
	Responders []GatewayStateReader
	// WriteQueue bounds a connection's unwritten backlog, in units of
	// 512 bytes (default 1024: 512 KiB); frames beyond it are dropped.
	WriteQueue int
}

func buildGateway(o GatewayOptions, submit func([]byte), depth func() int,
	reg *metrics.Registry, faultBound int) (*Gateway, error) {
	return gateway.New(gateway.Config{
		Addr:    o.Addr,
		Submit:  submit,
		Depth:   depth,
		Metrics: reg,
		Limits:  o.Limits,
		Read: gateway.ReadConfig{
			Responders: o.Responders,
			FaultBound: faultBound,
		},
		WriteQueue: o.WriteQueue,
	})
}

// ServeGateway attaches a client gateway to node i: admitted transactions
// feed the node's mempool, commit notifications stream from its total order,
// and the gateway's instruments land in the node's pipeline registry (so
// PipelineMetrics(i) includes the gateway.* namespace). Must be called
// before Start (it registers an OnCommit hook). Close the returned Gateway
// before stopping the cluster.
//
// In clan modes, i should be a proposer (clan member) — the paper's client
// interaction model: clients talk to clan members only.
func (c *Cluster) ServeGateway(i int, o GatewayOptions) (*Gateway, error) {
	ci := c.ClanOf(NodeID(i))
	fb := 0
	if ci >= 0 && len(o.Responders) > 0 {
		fb = c.ClanFaultBound(ci)
	}
	gw, err := buildGateway(o,
		func(tx []byte) { c.pools[i].Submit(tx) },
		c.pools[i].Depth,
		c.nodes[i].PipelineMetrics(),
		fb)
	if err != nil {
		return nil, err
	}
	c.OnCommit(i, func(cv Commit) {
		if cv.Block != nil && !cv.Block.IsSynthetic() {
			gw.NotifyCommitted(uint64(cv.Vertex.Round), cv.Block.Txs)
		}
	})
	return gw, nil
}

// ServeGateway attaches a client gateway to this node; see
// (*Cluster).ServeGateway. Must be called before Start.
func (n *TCPNode) ServeGateway(o GatewayOptions) (*Gateway, error) {
	fb := 0
	if len(o.Responders) > 0 {
		fb = n.FaultBound()
	}
	gw, err := buildGateway(o,
		n.pool.Submit,
		n.pool.Depth,
		n.node.PipelineMetrics(),
		fb)
	if err != nil {
		return nil, err
	}
	n.OnCommit(func(cv Commit) {
		if cv.Block != nil && !cv.Block.IsSynthetic() {
			gw.NotifyCommitted(uint64(cv.Vertex.Round), cv.Block.Txs)
		}
	})
	return gw, nil
}
