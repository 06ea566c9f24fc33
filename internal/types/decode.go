package types

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
// edges of 8 vertices at n=4 and of 4 at n=7 (a vertex with more than 32
// edges gets an array of its own).
const (
	echoArenaSize  = 32
	entryArenaSize = 96
	valArenaSize   = 11 // 11 × 312 B
	refArenaSize   = 32 // 32 × 48 B
)

// RefArena hands out edge lists from shared blocks of refArenaSize
// references: one allocation per block instead of one per vertex. A list
// longer than a block gets an array of its own, so a block is never sized
// after a peer's bytes. The zero RefArena is ready to use; a nil one hands
// out heap arrays only.
type RefArena struct {
	tail []VertexRef // the unused tail of the current block
}

// Take returns an empty list with room for exactly k references. The room is
// the caller's: the next Take starts past it, and an append beyond k moves
// the list rather than reaching a neighbour's.
func (a *RefArena) Take(k int) []VertexRef {
	if a == nil || k == 0 || k > refArenaSize {
		return make([]VertexRef, 0, k)
	}
	if len(a.tail) < k {
		a.tail = make([]VertexRef, refArenaSize)
	}
	refs := a.tail[:0:k]
	a.tail = a.tail[k:]
	return refs
}

// Decoder parses framed messages like Decode, handing out ECHO messages and
// VALs from arenas. A Decoder belongs to a single read loop (it is not safe
// for concurrent use). What it returns owns its bytes: the caller may
// overwrite the frame as soon as Decode returns.
type Decoder struct {
	echoes  []EchoMsg   // unused tail of the current message block
	entries []EchoEntry // zero length; its capacity is the current entry block's unused tail
	vals    []valPair   // unused tail of the current VAL block
	edges   RefArena
}

// decodeEcho parses an ECHO frame into arena storage: the message from the
// message block, its entries carved off the entry block. A frame that could
// hold more entries than a whole block lets append find it room on the heap
// instead: the arena is never sized after a peer's bytes.
func (d *Decoder) decodeEcho(body []byte) (*EchoMsg, error) {
	if len(d.echoes) == 0 {
		d.echoes = make([]EchoMsg, echoArenaSize)
	}
	m := &d.echoes[0] // a rejected frame leaves it untouched, to be handed out again
	most := len(body) / echoEntryMin
	arena := most <= entryArenaSize
	var buf []EchoEntry
	if arena {
		if cap(d.entries) < most {
			d.entries = make([]EchoEntry, 0, entryArenaSize)
		}
		buf = d.entries
	}
	if err := unmarshalEchoInto(m, buf, body); err != nil {
		return nil, err
	}
	d.echoes = d.echoes[1:]
	if arena {
		k := len(m.Entries)
		m.Entries = m.Entries[:k:k] // a holder's append must not reach the next frame's entries
		d.entries = d.entries[k:k]
	}
	return m, nil
}

// decodeVal parses a VAL frame into arena storage: the message and its
// vertex from the VAL block, both edge lists from the edge arena. A carried
// block still decodes onto the heap, since a carved one would outlive its
// eviction from the block cache; TakeBlock keeps the VAL block from pinning
// it.
func (d *Decoder) decodeVal(body []byte) (*ValMsg, error) {
	if len(d.vals) == 0 {
		d.vals = make([]valPair, valArenaSize)
	}
	p := &d.vals[0]
	if err := unmarshalValInto(p, &d.edges, body); err != nil {
		*p = valPair{} // a rejected frame may have filled part of it; hand it out again clean
		return nil, err
	}
	d.vals = d.vals[1:]
	return &p.m, nil
}

// Decode parses the framed message in b: ECHO frames and VALs into the
// arenas, every other kind through the package Decode.
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
