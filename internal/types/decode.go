package types

// Echoes are the highest-volume message class ((n-1)^2 entries per vertex per
// round), so the decoder hands out their structs and entry lists from blocks
// of this many: one allocation amortized over a block instead of two per
// frame. A decoder lives as long as its connection, and so does its current
// pair of blocks: together they are sized to the 8 KiB the single-position
// vote arena they replace held per connection.
const (
	echoArenaSize  = 32
	entryArenaSize = 96
)

// Decoder parses framed messages like Decode, handing out ECHO messages from
// an arena. A Decoder belongs to a single read loop (it is not safe for
// concurrent use). What it returns owns its bytes: the caller may overwrite
// the frame as soon as Decode returns.
type Decoder struct {
	echoes  []EchoMsg   // unused tail of the current message block
	entries []EchoEntry // zero length; its capacity is the current entry block's unused tail
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

// Decode parses the framed message in b: ECHO frames into the arena, every
// other kind through the package Decode.
func (d *Decoder) Decode(b []byte) (Message, error) {
	if len(b) > 0 && MsgKind(b[0]) == KindEcho {
		m, err := d.decodeEcho(b[1:])
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	return Decode(b)
}
