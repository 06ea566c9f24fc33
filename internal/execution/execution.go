// Package execution implements the post-consensus layer the paper's key
// idea rests on (Section 1): once vertices are totally ordered, only an
// honest-MAJORITY clan needs to execute transactions and answer clients — a
// client that receives f_c+1 matching responses knows at least one honest
// executor produced them, and n_c >= 2f_c+1 guarantees f_c+1 honest
// executors respond.
//
// The state machine is a deterministic key-value store with a running state
// root, so divergence between replicas is detectable byte-for-byte.
// Transactions:
//
//	SET <key> <value>  -> stores value, result "OK"
//	GET <key>          -> result is the stored value (or "")
//	DEL <key>          -> deletes, result "OK"
//
// encoded as op byte + uvarint-framed fields (see EncodeTx/DecodeTx).
package execution

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/crypto"
	"clanbft/internal/types"
)

// Op codes.
const (
	OpSet byte = 1
	OpGet byte = 2
	OpDel byte = 3
)

// Tx is a decoded transaction.
type Tx struct {
	Op    byte
	Key   []byte
	Value []byte
}

// EncodeTx serializes a transaction.
func EncodeTx(t Tx) []byte {
	b := []byte{t.Op}
	b = types.PutUvarint(b, uint64(len(t.Key)))
	b = append(b, t.Key...)
	b = types.PutUvarint(b, uint64(len(t.Value)))
	return append(b, t.Value...)
}

// DecodeTx parses a transaction; unparseable input yields ok=false (the
// executor treats it as a no-op with an error result, keeping replicas
// deterministic on garbage input).
func DecodeTx(b []byte) (Tx, bool) {
	if len(b) < 1 {
		return Tx{}, false
	}
	t := Tx{Op: b[0]}
	var kl uint64
	var err error
	rest := b[1:]
	if kl, rest, err = types.Uvarint(rest); err != nil || kl > uint64(len(rest)) {
		return Tx{}, false
	}
	t.Key = rest[:kl]
	rest = rest[kl:]
	var vl uint64
	if vl, rest, err = types.Uvarint(rest); err != nil || vl > uint64(len(rest)) {
		return Tx{}, false
	}
	t.Value = rest[:vl]
	return t, true
}

// AccessSet names the keys a decoded transaction reads and writes — the
// input to the parallel engine's conflict DAG (execution/parallel). Every
// current op touches at most one key; nil means "none". Ops outside the
// known set (bad op byte) access nothing: their result is a constant, so
// they conflict with no one.
type AccessSet struct {
	Read  []byte
	Write []byte
}

// Access extracts the transaction's read/write set.
func (t Tx) Access() AccessSet {
	switch t.Op {
	case OpSet, OpDel:
		return AccessSet{Write: t.Key}
	case OpGet:
		return AccessSet{Read: t.Key}
	}
	return AccessSet{}
}

// Results that do not depend on the state are shared: executing a write
// allocates nothing for its result. Callers treat results as read-only.
var (
	resultOK = []byte("OK")
	// ResultMalformed is the result of a transaction DecodeTx rejects.
	ResultMalformed = []byte("ERR malformed")
)

// TxID identifies a transaction by content hash.
type TxID = types.Hash

// TxIDOf hashes a raw transaction.
func TxIDOf(raw []byte) TxID { return types.HashBytes(raw) }

// Response is one executor's signed result for a transaction.
type Response struct {
	Tx       TxID
	Executor types.NodeID
	Result   []byte
	// StateRoot is the running root after applying the transaction,
	// binding the response to the full execution history.
	StateRoot types.Hash
	Sig       types.SigBytes
}

// respCtx is the signing context for a response.
func respCtx(r *Response) []byte {
	b := make([]byte, 0, 128)
	b = append(b, 'R')
	b = append(b, r.Tx[:]...)
	b = types.PutUvarint(b, uint64(r.Executor))
	b = types.PutUvarint(b, uint64(len(r.Result)))
	b = append(b, r.Result...)
	return append(b, r.StateRoot[:]...)
}

// Executor applies the committed order to the KV state machine. Feed it
// every core.CommittedVertex in delivery order via Apply; it executes the
// blocks this party holds (its own clan's payloads) and emits responses.
type Executor struct {
	Self types.NodeID
	Key  *crypto.KeyPair

	state *kvState
	root  types.Hash
	// hasher folds the root chain; Seal resets and reuses it.
	hasher hash.Hash
	// Executed counts applied transactions.
	Executed int
	// Emit receives a signed response per executed transaction (nil to
	// disable, e.g. for pure state-machine use).
	Emit func(Response)
	// ValidateCost models per-transaction validation work (VSCC-style
	// signature checks, endorsement policy evaluation) for throughput
	// experiments, exactly as the Fabric dependency-aware committer
	// exemplar does with its simulated 500µs verify. It is spent inside
	// ExecVersioned, so the parallel engine overlaps it across workers
	// while the serial path pays it per transaction. Zero (the default)
	// for production and correctness-test paths.
	ValidateCost time.Duration
}

// NewExecutor creates an executor with an empty state.
func NewExecutor(self types.NodeID, key *crypto.KeyPair) *Executor {
	return &Executor{Self: self, Key: key, state: newKVState(), hasher: sha256.New()}
}

// StateRoot returns the current running root.
func (e *Executor) StateRoot() types.Hash { return e.root }

// Get reads a key from local state (for serving reads outside consensus).
// The value is a copy: the state overwrites stored values in place.
func (e *Executor) Get(key []byte) ([]byte, bool) {
	value, _, ok := e.state.read(nil, key)
	return value, ok
}

// GetVersioned reads a key plus the version of the write that produced its
// value — the gateway's f_c+1 read aggregation matches responders on
// (version, value), so a stale replica holding byte-equal data from an older
// write still cannot masquerade as current. The value is a copy; ok=false
// means the key is absent (version 0).
func (e *Executor) GetVersioned(key []byte) (value []byte, version uint64, ok bool) {
	return e.state.read(nil, key)
}

// Len returns the number of live keys.
func (e *Executor) Len() int { return e.state.length() }

// Apply executes one committed vertex's block (if present). Vertices whose
// blocks this party does not hold are skipped — they belong to other clans.
func (e *Executor) Apply(cv core.CommittedVertex) {
	if cv.Block == nil || cv.Block.IsSynthetic() {
		return
	}
	for _, raw := range cv.Block.Txs {
		e.applyTx(raw)
	}
}

func (e *Executor) applyTx(raw []byte) {
	result := ResultMalformed
	if tx, ok := DecodeTx(raw); ok {
		result, _ = e.ExecVersioned(tx, uint64(e.Executed)+1)
	}
	r, emit := e.Seal(raw, result)
	if emit {
		e.SignResponse(&r)
		e.Emit(r)
	}
}

// ExecVersioned applies one decoded transaction to the shared state and
// returns its result bytes. ver stamps writes with the transaction's 1-based
// sequence number in the committed order (the serial path passes Executed+1;
// the parallel engine passes batchBase+index+1, which is the same number by
// construction). observed is the version of the value a read or overwrite
// saw — 0 for a fresh/absent key — which the parallel engine cross-checks
// against its conflict leveling.
//
// Safe for concurrent use on transactions with disjoint access sets; the
// caller (the engine's level scheduler) guarantees disjointness. The root
// fold does NOT happen here — call Seal afterwards, in committed order.
//
// t.Key and t.Value are only read: the state copies what it keeps, so they
// may alias a block or a pooled buffer. The result of a SET or DEL is the
// shared resultOK, which callers must not modify.
func (e *Executor) ExecVersioned(t Tx, ver uint64) (result []byte, observed uint64) {
	if e.ValidateCost > 0 {
		time.Sleep(e.ValidateCost)
	}
	switch t.Op {
	case OpSet:
		observed = e.state.put(t.Key, t.Value, ver)
		result = resultOK
	case OpGet:
		result, observed = e.state.get(t.Key)
	case OpDel:
		observed = e.state.del(t.Key)
		result = resultOK
	default:
		result = []byte(fmt.Sprintf("ERR op %d", t.Op))
	}
	return result, observed
}

// Seal folds one executed transaction into the running root and counts it.
// MUST be called exactly once per transaction, in committed order, from one
// goroutine — the root chain is the serial spine of execution and is what
// makes replica divergence detectable. Returns the unsigned response and
// whether the caller should sign/emit it (Emit set).
func (e *Executor) Seal(raw, result []byte) (Response, bool) {
	h := e.hasher
	h.Reset()
	h.Write(e.root[:])
	h.Write(raw)
	h.Write(result)
	h.Sum(e.root[:0]) // the old root is already absorbed; the new one lands in its array
	e.Executed++
	if e.Emit == nil {
		return Response{}, false
	}
	return Response{
		Tx:        TxIDOf(raw),
		Executor:  e.Self,
		Result:    result,
		StateRoot: e.root,
	}, true
}

// SignResponse signs a sealed response (no-op without a key). Ed25519 is
// deterministic, so signing is order-independent and safe to parallelize —
// the engine signs a whole batch's responses across workers and still emits
// byte-identical responses to the serial path.
func (e *Executor) SignResponse(r *Response) {
	if e.Key != nil {
		r.Sig = crypto.Sign(e.Key, respCtx(r))
	}
}

// ---------------------------------------------------------------------------
// Client-side response aggregation.

// Collector accumulates executor responses for a client and accepts a
// transaction's result once f_c+1 executors agree on (result, state root) —
// the paper's n_c >= 2f_c+1 argument: among any f_c+1 consistent responses
// at least one is honest.
type Collector struct {
	Fc  int
	Reg *crypto.Registry

	// Accepted fires once per transaction on first acceptance.
	Accepted func(tx TxID, result []byte)

	pending map[TxID]map[string]map[types.NodeID]bool
	done    map[TxID][]byte
}

// NewCollector builds a collector for a clan tolerating fc faults.
func NewCollector(fc int, reg *crypto.Registry) *Collector {
	return &Collector{
		Fc:      fc,
		Reg:     reg,
		pending: map[TxID]map[string]map[types.NodeID]bool{},
		done:    map[TxID][]byte{},
	}
}

// Add ingests one response. Invalid signatures are dropped. It returns the
// accepted result once the f_c+1 threshold is met (and on every call after),
// or nil while undecided.
func (c *Collector) Add(r Response) []byte {
	if res, ok := c.done[r.Tx]; ok {
		return res
	}
	if c.Reg != nil && !c.Reg.Verify(r.Executor, respCtx(&r), r.Sig) {
		return nil
	}
	byResult, ok := c.pending[r.Tx]
	if !ok {
		byResult = map[string]map[types.NodeID]bool{}
		c.pending[r.Tx] = byResult
	}
	// Consistency = same result AND same state root.
	key := string(r.Result) + "\x00" + string(r.StateRoot[:])
	voters, ok := byResult[key]
	if !ok {
		voters = map[types.NodeID]bool{}
		byResult[key] = voters
	}
	voters[r.Executor] = true
	if len(voters) >= c.Fc+1 {
		res := append([]byte(nil), r.Result...)
		c.done[r.Tx] = res
		delete(c.pending, r.Tx)
		if c.Accepted != nil {
			c.Accepted(r.Tx, res)
		}
		return res
	}
	return nil
}

// Result returns the accepted result for tx, if decided.
func (c *Collector) Result(tx TxID) ([]byte, bool) {
	r, ok := c.done[tx]
	return r, ok
}

// ---------------------------------------------------------------------------
// State snapshot / transfer.

// Snapshot serializes the executor's full state (keys, values, running root,
// executed count) so a recovering or newly joined clan member can take over
// without replaying history from genesis. The encoding is deterministic
// (sorted keys).
func (e *Executor) Snapshot() []byte {
	keys := e.state.keys()
	sort.Strings(keys)
	b := make([]byte, 0, 64)
	b = append(b, e.root[:]...)
	b = types.PutUvarint(b, uint64(e.Executed))
	b = types.PutUvarint(b, uint64(len(keys)))
	var val []byte
	for _, k := range keys {
		b = types.PutUvarint(b, uint64(len(k)))
		b = append(b, k...)
		val, _, _ = e.state.read(val[:0], []byte(k))
		b = types.PutUvarint(b, uint64(len(val)))
		b = append(b, val...)
	}
	return b
}

// SnapshotRoot returns the state root a snapshot commits to, letting a
// receiver validate a transferred snapshot against f_c+1 matching signed
// responses (each Response carries the sender's running root).
func SnapshotRoot(snap []byte) (types.Hash, bool) {
	var h types.Hash
	if len(snap) < 32 {
		return h, false
	}
	copy(h[:], snap[:32])
	return h, true
}

// Restore replaces the executor's state with a snapshot. Returns false (and
// leaves the executor untouched) on malformed input.
func (e *Executor) Restore(snap []byte) bool {
	if len(snap) < 32 {
		return false
	}
	var root types.Hash
	copy(root[:], snap[:32])
	b := snap[32:]
	executed, b, err := types.Uvarint(b)
	if err != nil {
		return false
	}
	cnt, b, err := types.Uvarint(b)
	if err != nil || cnt > uint64(len(b)) {
		return false
	}
	state := newKVState()
	for i := uint64(0); i < cnt; i++ {
		var kl uint64
		if kl, b, err = types.Uvarint(b); err != nil || kl > uint64(len(b)) {
			return false
		}
		k := b[:kl]
		b = b[kl:]
		var vl uint64
		if vl, b, err = types.Uvarint(b); err != nil || vl > uint64(len(b)) {
			return false
		}
		// Restored values carry version 0: the snapshot predates this
		// executor's local sequence numbering.
		state.put(k, b[:vl], 0)
		b = b[vl:]
	}
	if len(b) != 0 {
		return false
	}
	e.state = state
	e.root = root
	e.Executed = int(executed)
	return true
}
