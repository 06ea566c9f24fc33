package clanbft

import "clanbft/internal/gateway"

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
// read aggregation by appending the value to a buffer the gateway recycles
// from read to read (execution.Executor.GetVersioned satisfies it via
// GatewayReaderFunc). It never returns memory it keeps.
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

// ServeGateway attaches a client gateway to this node: admitted
// transactions feed the node's mempool, commit notifications stream from its
// total order, and the gateway's instruments land in the node's pipeline
// registry (so PipelineMetrics includes the gateway.* namespace). Reads
// aggregate over o.Responders to FaultBound+1 matching answers. Must be
// called before Start (it registers an OnCommit hook). Close the returned
// Gateway before closing the node.
//
// In clan modes the node should be a proposer (clan member) — the paper's
// client interaction model: clients talk to clan members only.
func (n *TCPNode) ServeGateway(o GatewayOptions) (*Gateway, error) {
	fb := 0
	if len(o.Responders) > 0 {
		fb = n.FaultBound()
	}
	gw, err := gateway.New(gateway.Config{
		Addr:    o.Addr,
		Submit:  n.pool.Submit,
		Depth:   n.pool.Depth,
		Metrics: n.node.PipelineMetrics(),
		Limits:  o.Limits,
		Read: gateway.ReadConfig{
			Responders: o.Responders,
			FaultBound: fb,
		},
		WriteQueue: o.WriteQueue,
	})
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
