package types

import "fmt"

// MsgKind discriminates wire messages.
type MsgKind uint8

const (
	// Consensus-path messages (merged vertex+block RBC, Section 5).
	KindVal      MsgKind = 1 // vertex proposal, optionally with block
	KindEcho     MsgKind = 2 // one voter's echoes for 1..n positions
	KindBlockReq MsgKind = 5
	KindBlockRsp MsgKind = 6
	KindNoVote   MsgKind = 7
	KindTimeout  MsgKind = 8
	KindTC       MsgKind = 9
	KindVtxReq   MsgKind = 10
	KindVtxRsp   MsgKind = 11
	// Snapshot state-sync (join / catch-up bootstrap, epoch reconfig).
	KindSnapReq MsgKind = 12
	KindSnapRsp MsgKind = 13
)

// Message is anything that can travel between parties. WireSize must equal
// len(Marshal(nil)) for real payloads, or the modeled size for synthetic
// blocks.
type Message interface {
	Kind() MsgKind
	Marshal(b []byte) []byte
	WireSize() int
}

// Encode frames m as kind byte + body.
func Encode(m Message, b []byte) []byte {
	b = append(b, byte(m.Kind()))
	return m.Marshal(b)
}

// Decode parses a framed message.
func Decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("types: empty message")
	}
	kind, body := MsgKind(b[0]), b[1:]
	var (
		m   Message
		err error
	)
	switch kind {
	case KindVal:
		m, err = unmarshalVal(body)
	case KindEcho:
		e := &EchoMsg{}
		m, err = e, unmarshalEchoInto(e, nil, body)
	case KindBlockReq:
		m, err = unmarshalBlockReq(body)
	case KindBlockRsp:
		m, err = unmarshalBlockRsp(body)
	case KindNoVote:
		m, err = unmarshalNoVote(body)
	case KindTimeout:
		m, err = unmarshalTimeout(body)
	case KindTC:
		m, err = unmarshalTCMsg(body)
	case KindVtxReq:
		m, err = unmarshalVtxReq(body)
	case KindVtxRsp:
		m, err = unmarshalVtxRsp(body)
	case KindSnapReq:
		m, err = unmarshalSnapReq(body)
	case KindSnapRsp:
		m, err = unmarshalSnapRsp(body)
	default:
		return nil, fmt.Errorf("types: unknown message kind %d", kind)
	}
	return m, err
}

// ValMsg is the first message of the merged RBC: the vertex goes to the whole
// tribe, the block only to the proposer's clan (Block == nil elsewhere). Sig
// covers the vertex digest, binding the proposal to its sender.
type ValMsg struct {
	VerifyMark
	Vertex *Vertex
	Block  *Block // nil outside the clan
	Sig    SigBytes
	// decoded marks a message that came off a socket: its one receiver holds
	// the only reference. An in-process transport hands one ValMsg to every
	// receiver, and those must never be written to.
	decoded bool
}

// TakeBlock returns the block and, on a decoded message, forgets it: the
// decoder puts the message and its vertex in one allocation, so a block left
// in the message would stay reachable for as long as the vertex sits in the
// receiver's DAG, whatever the receiver's block cache does.
func (m *ValMsg) TakeBlock() *Block {
	blk := m.Block
	if m.decoded {
		m.Block = nil
	}
	return blk
}

func (m *ValMsg) Kind() MsgKind { return KindVal }

func (m *ValMsg) Marshal(b []byte) []byte {
	b = m.Vertex.Marshal(b)
	if m.Block != nil {
		b = append(b, 1)
		b = m.Block.Marshal(b)
	} else {
		b = append(b, 0)
	}
	return append(b, m.Sig[:]...)
}

func (m *ValMsg) WireSize() int {
	n := m.Vertex.WireSize() + 1 + 64
	if m.Block != nil {
		n += m.Block.WireSize()
	}
	return n
}

func unmarshalVal(b []byte) (*ValMsg, error) {
	// One allocation for the message and the vertex it always carries. The
	// vertex outlives the message (DAG), keeping the message's ~100 bytes
	// with it: cheaper than a second object per proposal.
	d := &struct {
		m ValMsg
		v Vertex
	}{}
	m := &d.m
	m.Vertex, m.decoded = &d.v, true
	b, err := unmarshalVertexInto(m.Vertex, b)
	if err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("types: short val flag")
	}
	hasBlock := b[0] == 1
	b = b[1:]
	if hasBlock {
		if m.Block, b, err = UnmarshalBlock(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 64 {
		return nil, fmt.Errorf("types: val sig length %d", len(b))
	}
	copy(m.Sig[:], b)
	return m, nil
}

// EchoEntry is one ECHO vote: the digest of the vertex echoed at Pos.
type EchoEntry struct {
	Pos    Position
	Digest Hash
}

// EchoMsg carries one voter's ECHOs for the RBC instances at 1..n positions
// under a single signature: the voter signs the concatenation of its entries'
// signing contexts, so one signature check authenticates every vote in the
// frame and each can be folded into its position's aggregate certificate.
//
// On the wire the entries run back to back up to the tail — the voter and the
// signature — with no count: a frame with one entry is byte for byte the
// single-position frame it replaces.
type EchoMsg struct {
	VerifyMark
	Entries []EchoEntry
	Voter   NodeID
	Sig     SigBytes
}

// echoTailMax bounds the tail after the last entry: the voter's uvarint (a
// NodeID takes at most three bytes) and the signature. An entry is at least
// echoEntryMin bytes, so a frame that runs past the bound holds another one.
const (
	echoTailMax  = 3 + 64
	echoEntryMin = 1 + 1 + 32
)

func (m *EchoMsg) Kind() MsgKind { return KindEcho }

func (m *EchoMsg) Marshal(b []byte) []byte {
	for i := range m.Entries {
		e := &m.Entries[i]
		b = PutUvarint(b, uint64(e.Pos.Round))
		b = PutUvarint(b, uint64(e.Pos.Source))
		b = append(b, e.Digest[:]...)
	}
	b = PutUvarint(b, uint64(m.Voter))
	return append(b, m.Sig[:]...)
}

func (m *EchoMsg) WireSize() int {
	n := uvarintLen(uint64(m.Voter)) + 64
	for i := range m.Entries {
		e := &m.Entries[i]
		n += uvarintLen(uint64(e.Pos.Round)) + uvarintLen(uint64(e.Pos.Source)) + 32
	}
	return n
}

// unmarshalEchoInto decodes an ECHO frame into caller-provided storage — m,
// and entries appended to buf — letting the Decoder carve both from its arena
// (echoes are the highest-volume message class). The entry count is bounded
// by the bytes actually present, never by a declared length.
func unmarshalEchoInto(m *EchoMsg, buf []EchoEntry, b []byte) error {
	if len(b) <= echoTailMax {
		return fmt.Errorf("types: echo frame without an entry")
	}
	for len(b) > echoTailMax {
		var e EchoEntry
		u, rest, err := Uvarint(b)
		if err != nil {
			return err
		}
		e.Pos.Round = Round(u)
		if u, rest, err = Uvarint(rest); err != nil {
			return err
		}
		e.Pos.Source = NodeID(u)
		if len(rest) < 32 {
			return fmt.Errorf("types: short echo digest")
		}
		copy(e.Digest[:], rest[:32])
		b = rest[32:]
		buf = append(buf, e)
	}
	u, b, err := Uvarint(b)
	if err != nil {
		return err
	}
	if len(b) != 64 {
		return fmt.Errorf("types: echo sig length %d", len(b))
	}
	m.Entries, m.Voter = buf, NodeID(u)
	copy(m.Sig[:], b)
	return nil
}

// EchoCertMsg is EC_r(m): an aggregate over 2f+1 ECHO votes with at least
// f_c+1 clan votes (Figure 3). Every node assembles it locally from the echo
// flood and keeps it; it travels only inside a VtxRspMsg, where it is what
// authenticates a pulled vertex.
type EchoCertMsg struct {
	Pos    Position
	Digest Hash
	Agg    AggSig
}

func (m *EchoCertMsg) marshal(b []byte) []byte {
	b = PutUvarint(b, uint64(m.Pos.Round))
	b = PutUvarint(b, uint64(m.Pos.Source))
	b = append(b, m.Digest[:]...)
	return marshalAgg(b, m.Agg)
}

func (m *EchoCertMsg) wireSize() int {
	return uvarintLen(uint64(m.Pos.Round)) + uvarintLen(uint64(m.Pos.Source)) + 32 + m.Agg.WireSize()
}

func unmarshalEchoCert(b []byte) (*EchoCertMsg, []byte, error) {
	m := &EchoCertMsg{}
	u, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	m.Pos.Round = Round(u)
	if u, b, err = Uvarint(b); err != nil {
		return nil, nil, err
	}
	m.Pos.Source = NodeID(u)
	if len(b) < 32 {
		return nil, nil, fmt.Errorf("types: short cert digest")
	}
	copy(m.Digest[:], b[:32])
	if m.Agg, b, err = unmarshalAgg(b[32:]); err != nil {
		return nil, nil, err
	}
	return m, b, nil
}

// BlockReqMsg asks a clan peer for the block with the given digest (the pull
// path used when a Byzantine sender withheld the block).
type BlockReqMsg struct {
	Pos    Position
	Digest Hash
}

func (m *BlockReqMsg) Kind() MsgKind { return KindBlockReq }

func (m *BlockReqMsg) Marshal(b []byte) []byte {
	b = PutUvarint(b, uint64(m.Pos.Round))
	b = PutUvarint(b, uint64(m.Pos.Source))
	return append(b, m.Digest[:]...)
}

func (m *BlockReqMsg) WireSize() int {
	return uvarintLen(uint64(m.Pos.Round)) + uvarintLen(uint64(m.Pos.Source)) + 32
}

func unmarshalBlockReq(b []byte) (*BlockReqMsg, error) {
	m := &BlockReqMsg{}
	u, b, err := Uvarint(b)
	if err != nil {
		return nil, err
	}
	m.Pos.Round = Round(u)
	if u, b, err = Uvarint(b); err != nil {
		return nil, err
	}
	m.Pos.Source = NodeID(u)
	if len(b) != 32 {
		return nil, fmt.Errorf("types: blockreq digest length %d", len(b))
	}
	copy(m.Digest[:], b)
	return m, nil
}

// BlockRspMsg answers a BlockReqMsg.
type BlockRspMsg struct {
	Block *Block
}

func (m *BlockRspMsg) Kind() MsgKind { return KindBlockRsp }

func (m *BlockRspMsg) Marshal(b []byte) []byte { return m.Block.Marshal(b) }

func (m *BlockRspMsg) WireSize() int { return m.Block.WireSize() }

func unmarshalBlockRsp(b []byte) (*BlockRspMsg, error) {
	blk, _, err := UnmarshalBlock(b)
	if err != nil {
		return nil, err
	}
	return &BlockRspMsg{Block: blk}, nil
}

// NoVoteMsg tells the next round's leader that the voter timed out waiting
// for the current round's leader vertex.
type NoVoteMsg struct {
	VerifyMark
	NV NoVote
}

func (m *NoVoteMsg) Kind() MsgKind { return KindNoVote }

func (m *NoVoteMsg) Marshal(b []byte) []byte {
	b = PutUvarint(b, uint64(m.NV.Round))
	b = PutUvarint(b, uint64(m.NV.Voter))
	return append(b, m.NV.Sig[:]...)
}

func (m *NoVoteMsg) WireSize() int {
	return uvarintLen(uint64(m.NV.Round)) + uvarintLen(uint64(m.NV.Voter)) + 64
}

func unmarshalNoVote(b []byte) (*NoVoteMsg, error) {
	m := &NoVoteMsg{}
	u, b, err := Uvarint(b)
	if err != nil {
		return nil, err
	}
	m.NV.Round = Round(u)
	if u, b, err = Uvarint(b); err != nil {
		return nil, err
	}
	m.NV.Voter = NodeID(u)
	if len(b) != 64 {
		return nil, fmt.Errorf("types: novote sig length %d", len(b))
	}
	copy(m.NV.Sig[:], b)
	return m, nil
}

// TimeoutMsg announces that the voter's timer for Round expired.
type TimeoutMsg struct {
	VerifyMark
	TO Timeout
}

func (m *TimeoutMsg) Kind() MsgKind { return KindTimeout }

func (m *TimeoutMsg) Marshal(b []byte) []byte {
	b = PutUvarint(b, uint64(m.TO.Round))
	b = PutUvarint(b, uint64(m.TO.Voter))
	return append(b, m.TO.Sig[:]...)
}

func (m *TimeoutMsg) WireSize() int {
	return uvarintLen(uint64(m.TO.Round)) + uvarintLen(uint64(m.TO.Voter)) + 64
}

func unmarshalTimeout(b []byte) (*TimeoutMsg, error) {
	m := &TimeoutMsg{}
	u, b, err := Uvarint(b)
	if err != nil {
		return nil, err
	}
	m.TO.Round = Round(u)
	if u, b, err = Uvarint(b); err != nil {
		return nil, err
	}
	m.TO.Voter = NodeID(u)
	if len(b) != 64 {
		return nil, fmt.Errorf("types: timeout sig length %d", len(b))
	}
	copy(m.TO.Sig[:], b)
	return m, nil
}

// TCMsg broadcasts an assembled timeout certificate.
type TCMsg struct {
	VerifyMark
	TC TimeoutCert
}

func (m *TCMsg) Kind() MsgKind { return KindTC }

func (m *TCMsg) Marshal(b []byte) []byte {
	b = PutUvarint(b, uint64(m.TC.Round))
	return marshalAgg(b, m.TC.Agg)
}

func (m *TCMsg) WireSize() int {
	return uvarintLen(uint64(m.TC.Round)) + m.TC.Agg.WireSize()
}

func unmarshalTCMsg(b []byte) (*TCMsg, error) {
	m := &TCMsg{}
	u, b, err := Uvarint(b)
	if err != nil {
		return nil, err
	}
	m.TC.Round = Round(u)
	if m.TC.Agg, _, err = unmarshalAgg(b); err != nil {
		return nil, err
	}
	return m, nil
}

// VtxReqMsg asks a peer for a missing vertex (proposals are downloaded off
// the critical path instead of being forwarded, per the paper's Section 7
// implementation notes). Have is the top round of the requester's connected
// DAG (at least its commit frontier): when it sits below the round under the
// requested position, the responder streams a bounded batch of the vertex's
// ancestors above Have alongside the reply, so a catching-up party covers
// many DAG levels per round trip instead of one.
type VtxReqMsg struct {
	Pos  Position
	Have Round
}

func (m *VtxReqMsg) Kind() MsgKind { return KindVtxReq }

func (m *VtxReqMsg) Marshal(b []byte) []byte {
	b = PutUvarint(b, uint64(m.Pos.Round))
	b = PutUvarint(b, uint64(m.Pos.Source))
	return PutUvarint(b, uint64(m.Have))
}

func (m *VtxReqMsg) WireSize() int {
	return uvarintLen(uint64(m.Pos.Round)) + uvarintLen(uint64(m.Pos.Source)) +
		uvarintLen(uint64(m.Have))
}

func unmarshalVtxReq(b []byte) (*VtxReqMsg, error) {
	m := &VtxReqMsg{}
	u, b, err := Uvarint(b)
	if err != nil {
		return nil, err
	}
	m.Pos.Round = Round(u)
	if u, b, err = Uvarint(b); err != nil {
		return nil, err
	}
	m.Pos.Source = NodeID(u)
	if u, _, err = Uvarint(b); err != nil {
		return nil, err
	}
	m.Have = Round(u)
	return m, nil
}

// VtxRspMsg answers a VtxReqMsg with the vertex, the echo certificate that
// pins it (when the responder holds one: a requester accepts a pulled vertex
// only against a certificate) and, when the requester is entitled to it and
// the responder holds it, the block.
type VtxRspMsg struct {
	Vertex *Vertex
	Cert   *EchoCertMsg // nil while the responder has not certified the position
	Block  *Block       // nil unless available and the requester is a clan member
}

// The flag byte after the vertex says which optional parts follow, in order.
const (
	vtxRspBlock = 1 << iota
	vtxRspCert
)

func (m *VtxRspMsg) Kind() MsgKind { return KindVtxRsp }

func (m *VtxRspMsg) Marshal(b []byte) []byte {
	b = m.Vertex.Marshal(b)
	flags := len(b)
	b = append(b, 0)
	if m.Cert != nil {
		b[flags] |= vtxRspCert
		b = m.Cert.marshal(b)
	}
	if m.Block != nil {
		b[flags] |= vtxRspBlock
		b = m.Block.Marshal(b)
	}
	return b
}

func (m *VtxRspMsg) WireSize() int {
	n := m.Vertex.WireSize() + 1
	if m.Cert != nil {
		n += m.Cert.wireSize()
	}
	if m.Block != nil {
		n += m.Block.WireSize()
	}
	return n
}

func unmarshalVtxRsp(b []byte) (*VtxRspMsg, error) {
	v, b, err := UnmarshalVertex(b)
	if err != nil {
		return nil, err
	}
	m := &VtxRspMsg{Vertex: v}
	if len(b) < 1 || b[0] > vtxRspBlock|vtxRspCert {
		return nil, fmt.Errorf("types: bad vtxrsp flags")
	}
	flags, b := b[0], b[1:]
	if flags&vtxRspCert != 0 {
		if m.Cert, b, err = unmarshalEchoCert(b); err != nil {
			return nil, err
		}
	}
	if flags&vtxRspBlock != 0 {
		if m.Block, _, err = UnmarshalBlock(b); err != nil {
			return nil, err
		}
	}
	return m, nil
}
