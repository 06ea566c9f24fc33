package types

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
)

// VertexRef identifies a vertex in the DAG by position and content digest.
// References are the edges of the DAG; they are what the whole tribe agrees
// on, while block payloads travel only inside clans.
type VertexRef struct {
	Round  Round
	Source NodeID
	Digest Hash
}

// Less orders references by (round, source); digests never collide for a
// fixed position because RBC forbids equivocation.
func (r VertexRef) Less(o VertexRef) bool {
	if r.Round != o.Round {
		return r.Round < o.Round
	}
	return r.Source < o.Source
}

func (r VertexRef) String() string {
	return fmt.Sprintf("v(%d/%d)", r.Round, r.Source)
}

// Position is a (round, source) pair without the digest, used as a map key.
type Position struct {
	Round  Round
	Source NodeID
}

// Pos returns the reference's position.
func (r VertexRef) Pos() Position { return Position{r.Round, r.Source} }

// NoVote is one party's signed statement that it will not vote for the
// leader vertex of the given round (it timed out waiting for it).
type NoVote struct {
	Round Round
	Voter NodeID
	Sig   SigBytes
}

// NoVoteCert proves that 2f+1 parties refused to vote for round Round's
// leader, authorizing the next leader to omit a strong edge to it.
type NoVoteCert struct {
	Round Round
	Agg   AggSig
}

// Timeout is one party's signed statement that round Round timed out.
type Timeout struct {
	Round Round
	Voter NodeID
	Sig   SigBytes
}

// TimeoutCert aggregates 2f+1 timeouts for a round and lets parties advance
// without waiting for the round's full quorum of vertices.
type TimeoutCert struct {
	Round Round
	Agg   AggSig
}

// Vertex is the metadata unit of the DAG (Figure 4 of the paper). It carries
// only the digest of its transaction block; the block itself is disseminated
// separately (to a clan, in clan modes).
type Vertex struct {
	Round       Round
	Source      NodeID
	BlockDigest Hash
	// StrongEdges reference >= 2f+1 vertices of Round-1.
	StrongEdges []VertexRef
	// WeakEdges reference earlier-round vertices not already reachable.
	WeakEdges []VertexRef
	// NVC authorizes a leader vertex that lacks a strong edge to the
	// previous round's leader. Nil otherwise.
	NVC *NoVoteCert
	// TC justifies entering this round past a stalled previous round.
	// Nil otherwise.
	TC *TimeoutCert
	// Epoch is the configuration epoch Round belongs to. Parties reject
	// vertices whose epoch disagrees with their own epoch table for that
	// round, so the whole tribe crosses every reconfiguration fence on the
	// same round boundary.
	Epoch uint64
	// Reconfig carries ordered membership-change requests (at most
	// MaxReconfigPerVertex). They ride in the vertex rather than the block
	// because vertices replicate tribe-wide while blocks are clan-confined
	// — every party must see a reconfiguration to schedule the fence.
	Reconfig []ReconfigTx
	// CreatedAt is the proposer's clock reading (nanoseconds) when the
	// vertex was built, stamped once before signing and covered by the
	// digest. OrderedAt minus this is the vertex's end-to-end consensus
	// latency (the order.commit_latency histogram). Zero means unstamped.
	CreatedAt int64
	// Lacks lists, ascending, the edges — indexed through StrongEdges, then
	// on through WeakEdges — whose block the proposer is entitled to and did
	// not hold when it built the vertex. A clan member's vertex is its
	// statement to the clan that it holds the payload of every same-clan
	// vertex it references, these excepted: what lets a holder drop a block
	// before the GC horizon. Empty unless a VAL was lost or withheld.
	Lacks []uint32

	// dig caches the digest once hasDig is set. Valid only while the vertex
	// is immutable — protocol code finalizes a vertex (NormalizeEdges)
	// before first use.
	dig    Hash
	hasDig bool
}

// Ref returns the canonical reference to v.
func (v *Vertex) Ref() VertexRef {
	return VertexRef{Round: v.Round, Source: v.Source, Digest: v.DigestCached()}
}

// DigestCached returns the digest, computing it at most once. Callers must
// not mutate the vertex afterwards.
func (v *Vertex) DigestCached() Hash {
	if !v.hasDig {
		v.dig, v.hasDig = v.Digest(), true
	}
	return v.dig
}

// Pos returns v's (round, source) position.
func (v *Vertex) Pos() Position { return Position{v.Round, v.Source} }

// Digest hashes the canonical encoding of the vertex.
func (v *Vertex) Digest() Hash {
	var buf [256]byte // a dense vertex without certificates fits; larger ones grow onto the heap
	return HashBytes(v.Marshal(buf[:0]))
}

// NormalizeEdges sorts edge lists so encoding is deterministic regardless of
// the order edges were accumulated in.
func (v *Vertex) NormalizeEdges() {
	byPosition := func(a, b VertexRef) int {
		if c := cmp.Compare(a.Round, b.Round); c != 0 {
			return c
		}
		return cmp.Compare(a.Source, b.Source)
	}
	slices.SortFunc(v.StrongEdges, byPosition)
	slices.SortFunc(v.WeakEdges, byPosition)
}

// HasStrongEdgeTo reports whether v has a strong edge to position p. Strong
// edges all target round v.Round-1 in ascending source order — the order the
// wire bitmap decodes to, NormalizeEdges produces, and the consensus engine's
// vertex validation demands — so this is a binary search.
func (v *Vertex) HasStrongEdgeTo(p Position) bool {
	if p.Round+1 != v.Round {
		return false
	}
	_, ok := slices.BinarySearchFunc(v.StrongEdges, p.Source, func(e VertexRef, src NodeID) int {
		return cmp.Compare(e.Source, src)
	})
	return ok
}

// Bits of the presence byte that follows the edges.
const (
	vtxHasNVC = 1 << iota
	vtxHasLacks
)

// NumEdges counts v's edges, strong and weak.
func (v *Vertex) NumEdges() int { return len(v.StrongEdges) + len(v.WeakEdges) }

// Edge returns v's i-th edge: the strong edges, then the weak ones — the
// numbering Lacks uses.
func (v *Vertex) Edge(i int) VertexRef {
	if i < len(v.StrongEdges) {
		return v.StrongEdges[i]
	}
	return v.WeakEdges[i-len(v.StrongEdges)]
}

// LacksValid reports whether Lacks is strictly ascending and inside the edge
// lists — the only form the decoder accepts and an honest proposer builds.
func (v *Vertex) LacksValid() bool {
	for k, i := range v.Lacks {
		if int(i) >= v.NumEdges() || (k > 0 && i <= v.Lacks[k-1]) {
			return false
		}
	}
	return true
}

// Marshal appends the canonical encoding of v to b.
//
// Edges travel compressed. Strong edges always target round v.Round-1
// (validateVertex rejects anything else), so the round is implicit and the
// set encodes as a minimal-width signer bitmap: O(n/8) bytes instead of ~35
// bytes per reference. Weak edges encode as (round delta, source) varint
// pairs. Edge digests do not travel at all: RBC's non-equivocation property
// pins a unique certified vertex per (round, source) position, so a position
// identifies its vertex — the vertex digest therefore commits to the parent
// positions, which is exactly the set the ordering rules consume.
func (v *Vertex) Marshal(b []byte) []byte {
	b = PutUvarint(b, uint64(v.Round))
	b = PutUvarint(b, uint64(v.Source))
	b = append(b, v.BlockDigest[:]...)
	width := 0
	for _, e := range v.StrongEdges {
		if w := int(e.Source)/8 + 1; w > width {
			width = w
		}
	}
	b = PutUvarint(b, uint64(width))
	start := len(b)
	for i := 0; i < width; i++ {
		b = append(b, 0)
	}
	for _, e := range v.StrongEdges {
		b[start+int(e.Source)/8] |= 1 << (e.Source % 8)
	}
	b = PutUvarint(b, uint64(len(v.WeakEdges)))
	for _, e := range v.WeakEdges {
		b = PutUvarint(b, uint64(v.Round)-uint64(e.Round))
		b = PutUvarint(b, uint64(e.Source))
	}
	// One presence byte for the no-vote certificate and the Lacks list, so a
	// vertex without the list encodes as it did before the list existed.
	flags := len(b)
	b = append(b, 0)
	if v.NVC != nil {
		b[flags] |= vtxHasNVC
		b = PutUvarint(b, uint64(v.NVC.Round))
		b = marshalAgg(b, v.NVC.Agg)
	}
	if len(v.Lacks) > 0 {
		b[flags] |= vtxHasLacks
		b = PutUvarint(b, uint64(len(v.Lacks)))
		for _, i := range v.Lacks {
			b = PutUvarint(b, uint64(i))
		}
	}
	if v.TC != nil {
		b = append(b, 1)
		b = PutUvarint(b, uint64(v.TC.Round))
		b = marshalAgg(b, v.TC.Agg)
	} else {
		b = append(b, 0)
	}
	b = PutUvarint(b, v.Epoch)
	b = PutUvarint(b, uint64(len(v.Reconfig)))
	for i := range v.Reconfig {
		b = v.Reconfig[i].Marshal(b)
	}
	b = PutUvarint(b, uint64(v.CreatedAt))
	return b
}

// UnmarshalVertex decodes a vertex and returns the remaining bytes.
func UnmarshalVertex(b []byte) (*Vertex, []byte, error) {
	v := &Vertex{}
	b, err := unmarshalVertexInto(v, b)
	if err != nil {
		return nil, nil, err
	}
	return v, b, nil
}

// unmarshalVertexInto decodes into caller-provided zeroed storage, so a
// message that always carries a vertex can hold it in its own allocation.
func unmarshalVertexInto(v *Vertex, b []byte) ([]byte, error) {
	var u uint64
	var err error
	if u, b, err = Uvarint(b); err != nil {
		return nil, err
	}
	v.Round = Round(u)
	if u, b, err = Uvarint(b); err != nil {
		return nil, err
	}
	v.Source = NodeID(u)
	if len(b) < 32 {
		return nil, fmt.Errorf("types: short vertex digest")
	}
	copy(v.BlockDigest[:], b[:32])
	b = b[32:]
	if v.StrongEdges, v.WeakEdges, b, err = unmarshalEdges(b, v.Round); err != nil {
		return nil, err
	}
	if len(b) < 1 || b[0] > vtxHasNVC|vtxHasLacks {
		return nil, fmt.Errorf("types: bad vertex nvc flags")
	}
	flags, b := b[0], b[1:]
	if flags&vtxHasNVC != 0 {
		nvc := &NoVoteCert{}
		if u, b, err = Uvarint(b); err != nil {
			return nil, err
		}
		nvc.Round = Round(u)
		if nvc.Agg, b, err = unmarshalAgg(b); err != nil {
			return nil, err
		}
		v.NVC = nvc
	}
	if flags&vtxHasLacks != 0 {
		if u, b, err = Uvarint(b); err != nil {
			return nil, err
		}
		// Bounded by the edges just decoded, never by the declared count.
		if u == 0 || u > uint64(v.NumEdges()) {
			return nil, fmt.Errorf("types: %d lacked blocks for %d edges", u, v.NumEdges())
		}
		v.Lacks = make([]uint32, u)
		for i := range v.Lacks {
			if u, b, err = Uvarint(b); err != nil {
				return nil, err
			}
			if u >= uint64(v.NumEdges()) {
				return nil, fmt.Errorf("types: lacked block at edge %d of %d", u, v.NumEdges())
			}
			v.Lacks[i] = uint32(u)
		}
		if !v.LacksValid() {
			return nil, fmt.Errorf("types: lacked-block list not ascending")
		}
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("types: short vertex tc flag")
	}
	if b[0] == 1 {
		b = b[1:]
		tc := &TimeoutCert{}
		if u, b, err = Uvarint(b); err != nil {
			return nil, err
		}
		tc.Round = Round(u)
		if tc.Agg, b, err = unmarshalAgg(b); err != nil {
			return nil, err
		}
		v.TC = tc
	} else {
		b = b[1:]
	}
	if v.Epoch, b, err = Uvarint(b); err != nil {
		return nil, err
	}
	if u, b, err = Uvarint(b); err != nil {
		return nil, err
	}
	if u > MaxReconfigPerVertex {
		return nil, fmt.Errorf("types: %d reconfig txs exceed per-vertex bound", u)
	}
	for i := uint64(0); i < u; i++ {
		var tx ReconfigTx
		if tx, b, err = UnmarshalReconfigTx(b); err != nil {
			return nil, err
		}
		v.Reconfig = append(v.Reconfig, tx)
	}
	if u, b, err = Uvarint(b); err != nil {
		return nil, err
	}
	v.CreatedAt = int64(u)
	return b, nil
}

// WireSize returns the exact encoded size of v.
func (v *Vertex) WireSize() int {
	n := uvarintLen(uint64(v.Round)) + uvarintLen(uint64(v.Source)) + 32
	width := 0
	for _, e := range v.StrongEdges {
		if w := int(e.Source)/8 + 1; w > width {
			width = w
		}
	}
	n += uvarintLen(uint64(width)) + width
	n += uvarintLen(uint64(len(v.WeakEdges)))
	for _, e := range v.WeakEdges {
		n += uvarintLen(uint64(v.Round)-uint64(e.Round)) + uvarintLen(uint64(e.Source))
	}
	n += 2 // nvc/lacks + tc flags
	if v.NVC != nil {
		n += uvarintLen(uint64(v.NVC.Round)) + v.NVC.Agg.WireSize()
	}
	if len(v.Lacks) > 0 {
		n += uvarintLen(uint64(len(v.Lacks)))
		for _, i := range v.Lacks {
			n += uvarintLen(uint64(i))
		}
	}
	if v.TC != nil {
		n += uvarintLen(uint64(v.TC.Round)) + v.TC.Agg.WireSize()
	}
	n += uvarintLen(v.Epoch) + uvarintLen(uint64(len(v.Reconfig)))
	for i := range v.Reconfig {
		n += v.Reconfig[i].WireSize()
	}
	n += uvarintLen(uint64(v.CreatedAt))
	return n
}

// Equal reports deep equality via canonical encodings.
func (v *Vertex) Equal(o *Vertex) bool {
	if v == nil || o == nil {
		return v == o
	}
	return bytes.Equal(v.Marshal(nil), o.Marshal(nil))
}

// maxBitmapBytes bounds a strong-edge bitmap: NodeID is 16 bits, so no
// honest encoder ever emits more than 2^16/8 bytes.
const maxBitmapBytes = 8192

// unmarshalEdges decodes both edge lists into one backing array. Strong
// edges are a signer bitmap whose every bit targets round-1 (the only round
// validateVertex accepts); weak edges are (round delta, source) varint pairs.
// Digests are not on the wire — RBC pins the vertex behind each position.
func unmarshalEdges(b []byte, round Round) (strong, weak []VertexRef, rest []byte, err error) {
	width, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, nil, err
	}
	if width > maxBitmapBytes || width > uint64(len(b)) {
		return nil, nil, nil, fmt.Errorf("types: strong-edge bitmap width %d exceeds buffer", width)
	}
	bm := b[:width]
	b = b[width:]
	cnt, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, nil, err
	}
	if cnt > uint64(len(b)) {
		return nil, nil, nil, fmt.Errorf("types: weak-edge count %d exceeds buffer", cnt)
	}
	ns := BitmapCount(bm)
	refs := make([]VertexRef, 0, ns+int(cnt))
	prev := Round(uint64(round) - 1)
	BitmapForEach(bm, func(id NodeID) bool {
		refs = append(refs, VertexRef{Round: prev, Source: id})
		return true
	})
	for i := uint64(0); i < cnt; i++ {
		var delta, src uint64
		if delta, b, err = Uvarint(b); err != nil {
			return nil, nil, nil, err
		}
		if src, b, err = Uvarint(b); err != nil {
			return nil, nil, nil, err
		}
		if src > 0xFFFF {
			return nil, nil, nil, fmt.Errorf("types: weak-edge source %d out of range", src)
		}
		refs = append(refs, VertexRef{Round: Round(uint64(round) - delta), Source: NodeID(src)})
	}
	// Capped, so growing either list later never writes into the other.
	return refs[:ns:ns], refs[ns:], b, nil
}

func marshalAgg(b []byte, a AggSig) []byte {
	b = append(b, a.Tag[:]...)
	b = PutUvarint(b, uint64(len(a.Bitmap)))
	return append(b, a.Bitmap...)
}

func unmarshalAgg(b []byte) (AggSig, []byte, error) {
	var a AggSig
	if len(b) < 32 {
		return a, nil, fmt.Errorf("types: short agg tag")
	}
	copy(a.Tag[:], b[:32])
	b = b[32:]
	n, b, err := Uvarint(b)
	if err != nil {
		return a, nil, err
	}
	if n > uint64(len(b)) {
		return a, nil, fmt.Errorf("types: bitmap length %d exceeds buffer", n)
	}
	a.Bitmap = make([]byte, n)
	copy(a.Bitmap, b[:n])
	return a, b[n:], nil
}
