package types

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

// Decode parses a framed message onto the heap: it is the nil Decoder's
// Decode.
func Decode(b []byte) (Message, error) { return (*Decoder)(nil).Decode(b) }

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

// unmarshal decodes a VAL into the zeroed pair, its edge lists from edges
// and its block from blocks (the heap when nil). It leaves m.Vertex to the
// caller, who knows where v will live.
func (p *valPair) unmarshal(r *Reader, edges *Slab[VertexRef], blocks *BlockSlab) {
	p.v.unmarshal(r, edges)
	if r.flag() {
		p.m.Block = blocks.unmarshal(r)
	}
	p.m.Sig = r.sig()
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

// unmarshal decodes an ECHO frame into the zeroed m, its entries appended
// to entries: the entries run up to the tail, so their number is bounded by
// the bytes actually present, never by a declared length.
func (m *EchoMsg) unmarshal(r *Reader, entries []EchoEntry) {
	if r.left() <= echoTailMax {
		r.fail("echo frame without an entry")
	}
	// The hottest decode path reads each field in place, not through pos,
	// hash and sig: a call and a 32- or 64-byte temporary fewer per field.
	for r.left() > echoTailMax {
		var e EchoEntry
		e.Pos = Position{Round(r.Uvarint()), r.Node()}
		copy(e.Digest[:], r.Bytes(len(e.Digest)))
		entries = append(entries, e)
	}
	k := len(entries)
	m.Entries = entries[:k:k] // a holder's append must not reach the next frame's entries
	m.Voter = r.Node()
	copy(m.Sig[:], r.Bytes(len(m.Sig)))
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

func unmarshalEchoCert(r *Reader) *EchoCertMsg {
	return &EchoCertMsg{Pos: r.pos(), Digest: r.hash(), Agg: unmarshalAgg(r)}
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

// TCMsg broadcasts an assembled timeout certificate.
type TCMsg struct {
	VerifyMark
	TC ViewCert
}

func (m *TCMsg) Kind() MsgKind { return KindTC }

func (m *TCMsg) Marshal(b []byte) []byte { return m.TC.marshal(b) }

func (m *TCMsg) WireSize() int { return m.TC.wireSize() }

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

func unmarshalVtxRsp(r *Reader) *VtxRspMsg {
	m := &VtxRspMsg{Vertex: &Vertex{}}
	m.Vertex.unmarshal(r, nil)
	flags := r.bits(vtxRspBlock | vtxRspCert)
	if flags&vtxRspCert != 0 {
		m.Cert = unmarshalEchoCert(r)
	}
	if flags&vtxRspBlock != 0 {
		m.Block = (*BlockSlab)(nil).unmarshal(r)
	}
	return m
}
