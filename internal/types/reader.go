package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Reader is a cursor over one encoded value: the bytes, how many of them are
// read, and the first error. Every decoder reads through one, and the Reader
// alone decides what is canonical, so a value it accepts encodes back to
// exactly the bytes it was read from:
//
//   - a varint takes the fewest bytes that hold its value;
//   - a flag byte is 0 or 1, and a bit field sets no bit it does not name;
//   - a value read into a narrower field (a party's id) fits it;
//   - a declared count is bounded by the bytes left;
//   - nothing follows the value (End).
//
// The error is sticky: past it every read returns a zero value and consumes
// nothing, so a decoder reads its fields in a line and checks once, at End.
//
// A read moves an offset, not the slice: an integer store needs no GC write
// barrier. With that, and the hot reads kept to one call (Uvarint and Node
// wrap atMost; Bytes, and so hash and sig, inline whole), an ECHO frame
// decodes about as fast as through the hand-rolled parsers the Reader
// replaced.
type Reader struct {
	b   []byte
	off int // bytes read; len(b) once an error has dropped the rest
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// fail records the first error and drops the bytes left.
func (r *Reader) fail(format string, args ...any) {
	r.stop(fmt.Errorf("types: "+format, args...))
}

// stop is fail for an error made in advance, cheap enough to inline.
func (r *Reader) stop(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.b)
}

var errPastEnd = errors.New("types: read past the end")

// left reports how many bytes are left to read.
func (r *Reader) left() int { return len(r.b) - r.off }

// Uvarint reads a varint.
func (r *Reader) Uvarint() uint64 { return r.atMost(math.MaxUint64) }

// Node reads a party's id.
func (r *Reader) Node() NodeID { return NodeID(r.atMost(math.MaxUint16)) }

// atMost reads a varint, refusing one padded past the fewest bytes that hold
// its value (a last byte of zero after the first) and a value above max: one
// that would not survive conversion to a narrower field. It is the one varint
// parser, so a varint costs one call (binary.Uvarint inlines into it), and
// reads a one-byte varint, the common case, ahead of it.
func (r *Reader) atMost(max uint64) uint64 {
	b := r.b[r.off:]
	if len(b) > 0 && b[0] < 0x80 && uint64(b[0]) <= max {
		r.off++
		return uint64(b[0])
	}
	v, n := binary.Uvarint(b)
	switch {
	case n <= 0 || n > 1 && b[n-1] == 0:
		r.fail("bad uvarint")
		return 0
	case v > max:
		r.fail("value %d out of range", v)
		return 0
	}
	r.off += n
	return v
}

// below reads a varint and refuses a value of n or more: an index past its
// list, or a value a 32-bit field cannot hold.
func (r *Reader) below(n uint64) uint64 {
	v := r.Uvarint()
	if v >= n {
		r.fail("value %d out of range", v)
		return 0
	}
	return v
}

// pos reads a (round, source) position.
func (r *Reader) pos() Position { return Position{Round(r.Uvarint()), r.Node()} }

// Count reads a declared number of items, each at least minBytes long, and
// refuses a count the bytes left cannot hold: no caller sizes anything after
// a count the sender chose.
func (r *Reader) Count(minBytes int) int {
	v := r.Uvarint()
	if v > uint64(r.left()/minBytes) {
		r.fail("count %d exceeds the %d bytes left", v, r.left())
		return 0
	}
	return int(v)
}

// Bytes returns the next n bytes. They alias the input: a caller that keeps
// them copies.
func (r *Reader) Bytes(n int) []byte {
	off := r.off
	if n > len(r.b)-off {
		r.stop(errPastEnd)
		return nil
	}
	r.off = off + n
	return r.b[off : off+n : off+n]
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
	if r.off == len(r.b) || r.b[r.off]&^mask != 0 {
		r.fail("bad flag byte")
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// flag reads a byte that is 0 or 1.
func (r *Reader) flag() bool { return r.bits(1) == 1 }

// End returns the first error, or an error if bytes are left unread.
func (r *Reader) End() error {
	if r.off < len(r.b) {
		r.trailing()
	}
	return r.err
}

func (r *Reader) trailing() { r.fail("%d trailing bytes", r.left()) }
