package types

import "fmt"

// Slab carves values from shared blocks: one allocation per block of values
// instead of one per value or list. What it hands out is the taker's for
// good — only the value New handed out last can be given back, before anyone
// else has seen it (Return) — so a block lives until the last value carved
// from it is dropped. That is its one cost: a kept value keeps its
// neighbours' memory, and whatever they point to, reachable. Each user sizes
// its blocks after how long their values live together. The zero Slab is
// ready to use; a nil one hands out heap arrays only.
type Slab[T any] struct {
	block []T // the current block
	next  int // the first value of block not handed out
}

// Take returns an empty list with room for exactly k values, carved from a
// block of size values. The room is the caller's: the next Take starts past
// it, and an append beyond k moves the list rather than reaching a
// neighbour's. A list over half a block gets an array of its own, so no
// block is sized after a peer's bytes and none loses more than half of
// itself to a list that did not fit.
func (s *Slab[T]) Take(k, size int) []T {
	if s == nil || k > size/2 {
		return make([]T, 0, k)
	}
	if len(s.block)-s.next < k {
		s.block, s.next = make([]T, size), 0
	}
	l := s.block[s.next : s.next : s.next+k]
	s.next += k
	return l
}

// Left reports how many values the current block has left.
func (s *Slab[T]) Left() int { return len(s.block) - s.next }

// New returns one zero value carved from a block of size values.
func (s *Slab[T]) New(size int) *T {
	return &s.Take(1, size)[:1][0]
}

// Return zeroes p, the value New handed out last, and gives it back: the next
// New hands it out again.
func (s *Slab[T]) Return(p *T) {
	var zero T
	*p = zero
	if s != nil && s.next > 0 && &s.block[s.next-1] == p {
		s.next--
	}
}

// Echoes are the highest-volume message class ((n-1)^2 entries per vertex per
// round), so the decoder hands out their structs and entry lists from blocks
// of this many: one allocation amortized over a block instead of two per
// frame. A decoder lives as long as its connection, and so does its current
// pair of blocks: together they are sized to the 8 KiB the single-position
// vote arena they replace held per connection.
//
// VALs come one per peer per round, and their vertices stay in the DAG, so
// the decoder hands out (message, vertex) pairs and edge lists from blocks.
// A block lives until the last of its vertices leaves the DAG, holding the
// others a little longer than one object per vertex would, so the blocks are
// small: 11 pairs fill the 3456 B size class, and 32 references hold the
// edges of 8 vertices at n=4 and of 4 at n=7 (a vertex with more than 16
// edges gets an array of its own).
const (
	echoSlabSize  = 32
	entrySlabSize = 96
	valSlabSize   = 11 // 11 × 312 B
	refSlabSize   = 32 // 32 × 48 B
)

// Decoder parses framed messages, handing out ECHO messages and VALs, with a
// VAL's block, from slabs. A Decoder belongs to a single read loop (it is not
// safe for concurrent use), so everything it carves comes from one peer. What
// it returns owns its bytes: the caller may overwrite the frame as soon as
// Decode returns. A frame it rejects hands out no message: the next one takes
// the slot it would have had. A nil Decoder takes every message from the
// heap, as a nil Slab does.
type Decoder struct {
	echoes  Slab[EchoMsg]
	entries Slab[EchoEntry]
	vals    Slab[valPair]
	edges   Slab[VertexRef]
	blocks  BlockSlab // a VAL's block, its index and its bytes
}

// Decode parses the framed message in b through one Reader, which owns
// canonical form: a frame decodes only if the message it yields encodes back
// to b. A VAL and an ECHO are read in place, into the slot their slab hands
// out first, which a rejected frame gives back: the VAL as one pair, its
// edge lists and block carved as they are read; the ECHO's entries into room
// carved off the entry slab, sized by the bytes present — every entry takes
// at least echoEntryMin of them, the tail at least echoTailMin — so it
// overshoots by at most one entry on frames of up to 16, whatever the round.
func (d *Decoder) Decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("types: empty message")
	}
	kind, r := MsgKind(b[0]), Reader{b: b[1:]}
	var (
		m Message
		// d's slabs, or nil ones — the heap — for a nil Decoder.
		echoes  *Slab[EchoMsg]
		entries *Slab[EchoEntry]
		vals    *Slab[valPair]
		edges   *Slab[VertexRef]
		blocks  *BlockSlab
	)
	if d != nil {
		echoes, entries, vals, edges, blocks = &d.echoes, &d.entries, &d.vals, &d.edges, &d.blocks
	}
	switch kind {
	case KindVal:
		p := vals.New(valSlabSize)
		p.unmarshal(&r, edges, blocks)
		if err := r.End(); err != nil {
			vals.Return(p)
			return nil, err
		}
		p.m.Vertex, p.m.decoded = &p.v, true
		return &p.m, nil
	case KindEcho:
		p := echoes.New(echoSlabSize)
		most := (r.left() - echoTailMin) / echoEntryMin
		p.unmarshal(&r, entries.Take(max(most, 0), entrySlabSize))
		if err := r.End(); err != nil {
			echoes.Return(p)
			return nil, err
		}
		return p, nil
	case KindNoVote, KindTimeout:
		m = &ViewVoteMsg{NoVote: kind == KindNoVote, Vote: ViewVote{Round(r.Uvarint()), r.Node(), r.sig()}}
	case KindTC:
		tc := &TCMsg{}
		tc.TC.unmarshal(&r)
		m = tc
	case KindVtxReq:
		m = &VtxReqMsg{Pos: r.pos(), Have: Round(r.Uvarint())}
	case KindVtxRsp:
		m = unmarshalVtxRsp(&r)
	case KindSnapReq:
		m = &SnapReqMsg{}
	case KindSnapRsp:
		m = &SnapRspMsg{Data: append([]byte(nil), r.Bytes(r.Count(1))...)}
	default:
		return nil, fmt.Errorf("types: unknown message kind %d", kind)
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return m, nil
}
