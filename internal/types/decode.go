package types

// Slab carves values from shared blocks: one allocation per block of values
// instead of one per value or list. What it hands out is the taker's for
// good — a Slab never takes anything back — so a block lives until the last
// value carved from it is dropped. That is its one cost: a kept value keeps
// its neighbours' memory, and whatever they point to, reachable. Each user
// sizes its blocks after how long their values live together. The zero Slab
// is ready to use; a nil one hands out heap arrays only.
type Slab[T any] struct {
	free []T // the unused tail of the current block
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
	if len(s.free) < k {
		s.free = make([]T, size)
	}
	l := s.free[:0:k]
	s.free = s.free[k:]
	return l
}

// Left reports how many values the current block has left.
func (s *Slab[T]) Left() int { return len(s.free) }

// New returns one zero value carved from a block of size values.
func (s *Slab[T]) New(size int) *T {
	return &s.Take(1, size)[:1][0]
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

// Decoder parses framed messages like Decode, handing out ECHO messages and
// VALs, with a VAL's block, from slabs. A Decoder belongs to a single read
// loop (it is not safe for concurrent use), so everything it carves comes
// from one peer. What it returns owns its bytes: the caller may overwrite the
// frame as soon as Decode returns. A frame it rejects hands out no message:
// the next one takes the slot it would have had.
type Decoder struct {
	echoes  Slab[EchoMsg]
	entries Slab[EchoEntry]
	vals    Slab[valPair]
	edges   Slab[VertexRef]
	blocks  BlockSlab // a VAL's block, its index and its bytes
}

// decodeEcho parses an ECHO frame: the message onto the stack, then into the
// message slab, its entries into room carved off the entry slab. The room is
// sized by the bytes present — every entry takes at least echoEntryMin of
// them, the tail at least echoTailMin — so it overshoots by at most one
// entry on frames of up to 16, whatever the round.
func (d *Decoder) decodeEcho(body []byte) (*EchoMsg, error) {
	var m EchoMsg
	most := (len(body) - echoTailMin) / echoEntryMin
	if err := unmarshalEchoInto(&m, d.entries.Take(max(most, 0), entrySlabSize), body); err != nil {
		return nil, err
	}
	k := len(m.Entries)
	m.Entries = m.Entries[:k:k] // a holder's append must not reach the next frame's entries
	p := d.echoes.New(echoSlabSize)
	*p = m
	return p, nil
}

// decodeVal parses a VAL frame: the message and its vertex onto the stack,
// then into one pair from the VAL slab; both edge lists from the edge slab,
// and the block from the block slab.
func (d *Decoder) decodeVal(body []byte) (*ValMsg, error) {
	var p valPair
	if err := unmarshalValInto(&p.m, &p.v, d, body); err != nil {
		return nil, err
	}
	s := d.vals.New(valSlabSize)
	*s = p
	s.m.Vertex, s.m.decoded = &s.v, true
	return &s.m, nil
}

// Decode parses the framed message in b: ECHO frames and VALs into the
// slabs, every other kind through the package Decode.
func (d *Decoder) Decode(b []byte) (Message, error) {
	if len(b) > 0 {
		switch MsgKind(b[0]) {
		case KindEcho:
			m, err := d.decodeEcho(b[1:])
			if err != nil {
				return nil, err
			}
			return m, nil
		case KindVal:
			m, err := d.decodeVal(b[1:])
			if err != nil {
				return nil, err
			}
			return m, nil
		}
	}
	return Decode(b)
}
