package types

import "fmt"

// MsgKind discriminates wire messages.
type MsgKind uint8

const (
	// Consensus-path messages (merged vertex+block RBC, Section 5).
	KindVal  MsgKind = 1 // vertex proposal, optionally with block
	KindEcho MsgKind = 2 // one voter's echoes for 1..n positions
	// 5 and 6, a block-only pull and its reply, are retired: a block comes
	// back in its vertex's pull reply (KindVtxRsp). The decoder refuses them.
	KindNoVote  MsgKind = 7
	KindTimeout MsgKind = 8
	KindTC      MsgKind = 9
	KindVtxReq  MsgKind = 10
	KindVtxRsp  MsgKind = 11
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
	case KindNoVote, KindTimeout:
		m, err = unmarshalViewVote(body, kind == KindNoVote)
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
// decoder carves the message and its vertex from one slab, so a block left
// in the message would stay reachable for as long as any vertex of the slab
// sits in the receiver's DAG, whatever the receiver's block cache does. The
// block's own storage is carved to a bound (BlockSlab).
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

// valPair is a decoded VAL: the message and the vertex it always carries, in
// one object. The vertex outlives the message (DAG), keeping the message's
// ~100 bytes with it: cheaper than a second object per proposal.
type valPair struct {
	m ValMsg
	v Vertex
}

func unmarshalVal(b []byte) (*ValMsg, error) {
	p := &valPair{}
	if err := unmarshalValInto(&p.m, &p.v, nil, b); err != nil {
		return nil, err
	}
	p.m.Vertex, p.m.decoded = &p.v, true
	return &p.m, nil
}

// unmarshalValInto decodes a VAL into zeroed m and v, carving the edge lists
// and the block from d (the heap when nil). It leaves m.Vertex to the
// caller, who knows where v will live.
func unmarshalValInto(m *ValMsg, v *Vertex, d *Decoder, b []byte) error {
	var edges *Slab[VertexRef]
	var blocks *BlockSlab
	if d != nil {
		edges, blocks = &d.edges, &d.blocks
	}
	b, err := unmarshalVertexInto(v, edges, b)
	if err != nil {
		return err
	}
	if len(b) < 1 {
		return fmt.Errorf("types: short val flag")
	}
	hasBlock := b[0] == 1
	b = b[1:]
	if hasBlock {
		if m.Block, b, err = blocks.unmarshal(b); err != nil {
			return err
		}
	}
	if len(b) != 64 {
		return fmt.Errorf("types: val sig length %d", len(b))
	}
	copy(m.Sig[:], b)
	return nil
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

// echoTailMax and echoTailMin bound the tail after the last entry: the
// voter's uvarint (a NodeID takes one to three bytes) and the signature. An
// entry is at least echoEntryMin bytes, so a frame that runs past the bound
// holds another one.
const (
	echoTailMax  = 3 + 64
	echoTailMin  = 1 + 64
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
// and entries appended to buf — letting the Decoder carve both from its slabs
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

// ViewVoteMsg carries one view vote: a no-vote (kind 7), addressed to
// round Round+1's leader, or a timeout (kind 8), sent to everyone. The two
// kinds share one body; only the kind byte and the context the voter signed
// tell them apart.
type ViewVoteMsg struct {
	VerifyMark
	NoVote bool
	Vote   ViewVote
}

func (m *ViewVoteMsg) Kind() MsgKind {
	if m.NoVote {
		return KindNoVote
	}
	return KindTimeout
}

func (m *ViewVoteMsg) Marshal(b []byte) []byte {
	b = PutUvarint(b, uint64(m.Vote.Round))
	b = PutUvarint(b, uint64(m.Vote.Voter))
	return append(b, m.Vote.Sig[:]...)
}

func (m *ViewVoteMsg) WireSize() int {
	return uvarintLen(uint64(m.Vote.Round)) + uvarintLen(uint64(m.Vote.Voter)) + 64
}

func unmarshalViewVote(b []byte, noVote bool) (*ViewVoteMsg, error) {
	m := &ViewVoteMsg{NoVote: noVote}
	u, b, err := Uvarint(b)
	if err != nil {
		return nil, err
	}
	m.Vote.Round = Round(u)
	if u, b, err = Uvarint(b); err != nil {
		return nil, err
	}
	m.Vote.Voter = NodeID(u)
	if len(b) != 64 {
		return nil, fmt.Errorf("types: view vote sig length %d", len(b))
	}
	copy(m.Vote.Sig[:], b)
	return m, nil
}

// TCMsg broadcasts an assembled timeout certificate.
type TCMsg struct {
	VerifyMark
	TC ViewCert
}

func (m *TCMsg) Kind() MsgKind { return KindTC }

func (m *TCMsg) Marshal(b []byte) []byte { return m.TC.marshal(b) }

func (m *TCMsg) WireSize() int { return m.TC.wireSize() }

func unmarshalTCMsg(b []byte) (*TCMsg, error) {
	m := &TCMsg{}
	if _, err := unmarshalViewCert(&m.TC, b); err != nil {
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
