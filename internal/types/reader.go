package types

import (
	"encoding/binary"
	"fmt"
)

// Reader is a cursor over one encoded value: the bytes not yet read and the
// first error. Every decoder reads through one, and the Reader alone decides
// what is canonical, so a value it accepts encodes back to exactly the bytes
// it was read from:
//
//   - a varint takes the fewest bytes that hold its value;
//   - a flag byte is 0 or 1, and a bit field sets no bit it does not name;
//   - a value read into a narrower field (a party's id) fits it;
//   - a declared count is bounded by the bytes left;
//   - nothing follows the value (End).
//
// The error is sticky: past it every read returns a zero value and consumes
// nothing, so a decoder reads its fields in a line and checks once, at End.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// fail records the first error and drops the bytes left.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("types: "+format, args...)
	}
	r.b = nil
}

// left reports how many bytes are left to read.
func (r *Reader) left() int { return len(r.b) }

// Uvarint reads a varint, refusing one padded past the fewest bytes that hold
// its value (a last byte of zero after the first).
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// below reads a varint and refuses a value of n or more: one that would not
// survive conversion to a narrower field, or an index past its list.
func (r *Reader) below(n uint64) uint64 {
	v := r.Uvarint()
	if v >= n {
		r.fail("value %d out of range", v)
		return 0
	}
	return v
}

// Node reads a party's id.
func (r *Reader) Node() NodeID { return NodeID(r.below(1 << 16)) }

// pos reads a (round, source) position.
func (r *Reader) pos() Position { return Position{Round(r.Uvarint()), r.Node()} }

// Count reads a declared number of items, each at least minBytes long, and
// refuses a count the bytes left cannot hold: no caller sizes anything after
// a count the sender chose.
func (r *Reader) Count(minBytes int) int {
	v := r.Uvarint()
	if v > uint64(len(r.b)/minBytes) {
		r.fail("count %d exceeds the %d bytes left", v, len(r.b))
		return 0
	}
	return int(v)
}

// Bytes returns the next n bytes. They alias the input: a caller that keeps
// them copies.
func (r *Reader) Bytes(n int) []byte {
	if n > len(r.b) {
		r.fail("%d bytes past the end", n-len(r.b))
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

func (r *Reader) hash() (h Hash) {
	copy(h[:], r.Bytes(len(h)))
	return h
}

func (r *Reader) sig() (s SigBytes) {
	copy(s[:], r.Bytes(len(s)))
	return s
}

// fixed64 reads a little-endian 64-bit word.
func (r *Reader) fixed64() uint64 {
	if b := r.Bytes(8); len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// bits reads a byte of flags that sets no bit outside mask.
func (r *Reader) bits(mask byte) byte {
	if len(r.b) == 0 || r.b[0]&^mask != 0 {
		r.fail("bad flag byte")
		return 0
	}
	f := r.b[0]
	r.b = r.b[1:]
	return f
}

// flag reads a byte that is 0 or 1.
func (r *Reader) flag() bool { return r.bits(1) == 1 }

// End returns the first error, or an error if bytes are left unread.
func (r *Reader) End() error {
	if len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}
