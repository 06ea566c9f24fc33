package types

// ReconfigAction discriminates membership changes.
type ReconfigAction uint8

const (
	// ReconfigJoin admits Node (with its dial address) into the active
	// member set at the next epoch fence.
	ReconfigJoin ReconfigAction = 1
	// ReconfigLeave retires Node from the active member set; it keeps
	// running as an observer and may rejoin later.
	ReconfigLeave ReconfigAction = 2
)

// Limits on attacker-controlled reconfiguration payloads: a vertex carries at
// most MaxReconfigPerVertex transactions and an address is bounded so a
// Byzantine proposer cannot inflate vertices past validation.
const (
	MaxReconfigPerVertex = 16
	MaxReconfigAddr      = 128
)

// ReconfigTx is a signed membership-change request. It is ordered through
// the DAG like any other transaction (it rides in the vertex, which
// replicates tribe-wide, not in the clan-confined block); once a leader
// commit orders it, every party deterministically schedules the same epoch
// fence. Sig is the affected node's signature over the reconfig domain
// (core's reconfigCtx), so only the node itself can join or leave.
type ReconfigTx struct {
	Action ReconfigAction
	Node   NodeID
	// Addr is the node's dial address (joins only; empty for leaves).
	Addr string
	// PubKey pins the joining node's public key; parties check it against
	// the registry before counting the transaction.
	PubKey [32]byte
	Sig    SigBytes
}

// SigningBytes appends the fields covered by Sig (everything but Sig).
func (tx *ReconfigTx) SigningBytes(b []byte) []byte {
	b = append(b, byte(tx.Action))
	b = PutUvarint(b, uint64(tx.Node))
	b = PutUvarint(b, uint64(len(tx.Addr)))
	b = append(b, tx.Addr...)
	return append(b, tx.PubKey[:]...)
}

// Marshal appends the canonical encoding of tx.
func (tx *ReconfigTx) Marshal(b []byte) []byte {
	b = tx.SigningBytes(b)
	return append(b, tx.Sig[:]...)
}

// WireSize is the encoded size of tx.
func (tx *ReconfigTx) WireSize() int {
	return 1 + uvarintLen(uint64(tx.Node)) + uvarintLen(uint64(len(tx.Addr))) + len(tx.Addr) + 32 + 64
}

// reconfigTxMin is the fewest bytes a ReconfigTx encodes to: the action, a
// one-byte node and address length, the key and the signature.
const reconfigTxMin = 1 + 1 + 1 + 32 + 64

func unmarshalReconfigTx(r *Reader) (tx ReconfigTx) {
	tx.Action = ReconfigAction(r.bits(byte(ReconfigJoin | ReconfigLeave)))
	if tx.Action != ReconfigJoin && tx.Action != ReconfigLeave {
		r.fail("bad reconfig action %d", tx.Action)
	}
	tx.Node = r.Node()
	n := r.Count(1)
	if n > MaxReconfigAddr {
		r.fail("reconfig addr length %d exceeds bound", n)
	}
	tx.Addr = string(r.Bytes(n))
	tx.PubKey, tx.Sig = r.hash(), r.sig()
	return tx
}

// SnapReqMsg asks a peer for a point-in-time store snapshot (the join /
// catch-up bootstrap path). The responder streams its snapshot back in a
// SnapRspMsg; the requester restores it as its WAL and replays the suffix.
type SnapReqMsg struct{}

func (m *SnapReqMsg) Kind() MsgKind { return KindSnapReq }

func (m *SnapReqMsg) Marshal(b []byte) []byte { return b }

func (m *SnapReqMsg) WireSize() int { return 0 }

// SnapRspMsg carries a store snapshot: a self-delimiting stream of WAL
// records (CRC-framed puts in sorted key order, see store.Snapshot). A torn
// or damaged stream is safe to restore — WAL replay truncates at the first
// bad record.
type SnapRspMsg struct {
	Data []byte
}

func (m *SnapRspMsg) Kind() MsgKind { return KindSnapRsp }

func (m *SnapRspMsg) Marshal(b []byte) []byte {
	b = PutUvarint(b, uint64(len(m.Data)))
	return append(b, m.Data...)
}

func (m *SnapRspMsg) WireSize() int {
	return uvarintLen(uint64(len(m.Data))) + len(m.Data)
}
