package types

import "fmt"

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

// Decoder parses framed messages without copying payloads: payload-bearing
// messages borrow their byte slices from the caller's receive buffer. A
// Decoder belongs to a single read loop (it is not safe for concurrent use);
// its arena amortizes echo allocations. Decode is the copying parser.
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

// DecodeFrom parses the framed message in b, which must alias rb's bytes.
// When the decoded message borrows slices from the frame it retains rb; the
// dispatch layer releases it via ReleaseMsg after the handler returns. rb may
// be nil only for kinds that carry no payload.
func (d *Decoder) DecodeFrom(rb *RecvBuf, b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("types: empty message")
	}
	kind, body := MsgKind(b[0]), b[1:]
	switch kind {
	case KindEcho:
		m, err := d.decodeEcho(body)
		if err != nil {
			return nil, err
		}
		return m, nil
	case KindVal:
		m, err := unmarshalVal(body, true)
		if err != nil {
			return nil, err
		}
		if m.Block != nil && m.Block.borrowed {
			m.attachFrame(rb)
		}
		return m, nil
	case KindBlockRsp:
		m, err := unmarshalBlockRsp(body, true)
		if err != nil {
			return nil, err
		}
		if m.Block != nil && m.Block.borrowed {
			m.attachFrame(rb)
		}
		return m, nil
	case KindVtxRsp:
		m, err := unmarshalVtxRsp(body, true)
		if err != nil {
			return nil, err
		}
		if m.Block != nil && m.Block.borrowed {
			m.attachFrame(rb)
		}
		return m, nil
	default:
		// Remaining kinds never alias; share the plain path.
		return Decode(b)
	}
}
