package clanbft

import (
	"clanbft/internal/execution"
	"clanbft/internal/types"
)

// The execution layer (Section 1's agreement/execution separation): clan
// members run a deterministic KV state machine over the committed order and
// sign responses; clients accept a result once f_c+1 executors agree.

// Executor applies the committed order to a deterministic KV state machine.
type Executor = execution.Executor

// Response is one executor's signed result for a transaction.
type Response = execution.Response

// Collector aggregates executor responses client-side (f_c+1 matching).
type Collector = execution.Collector

// Tx is a decoded KV transaction.
type Tx = execution.Tx

// TxID identifies a transaction by content hash.
type TxID = execution.TxID

// KV transaction op codes.
const (
	OpSet = execution.OpSet
	OpGet = execution.OpGet
	OpDel = execution.OpDel
)

// EncodeTx serializes a KV transaction.
func EncodeTx(t Tx) []byte { return execution.EncodeTx(t) }

// TxIDOf hashes a raw transaction into its identifier.
func TxIDOf(raw []byte) types.Hash { return execution.TxIDOf(raw) }

// NewExecutor creates a KV executor for party i of the cluster, emitting
// signed responses.
func (c *Cluster) NewExecutor(i int) *Executor {
	return execution.NewExecutor(types.NodeID(i), c.Keys(i))
}

// NewCollector creates a client-side response collector for clan ci.
func (c *Cluster) NewCollector(ci int) *Collector {
	return execution.NewCollector(c.ClanFaultBound(ci), c.Registry())
}
