package types

import "sync/atomic"

// RecvBuf is a pooled, refcounted receive buffer: the inbound twin of the
// transport's encode-once frame. A reader fills one RecvBuf with many wire
// frames per syscall and alias-decodes messages straight out of it, so a
// received vote costs zero payload copies and zero per-frame allocations.
//
// Ownership contract (the Retain/Release spine of the zero-copy receive
// path):
//
//   - NewRecvBuf returns the buffer with one reference, owned by the reader.
//   - Every decoded message that borrows bytes from the buffer (see
//     Decoder) holds one additional reference, released by ReleaseMsg once
//     the message leaves the serialized handler.
//   - The last Release returns the bytes to the GetBuf/PutBuf pool.
//
// Between the first Retain and the final Release the bytes are immutable:
// the reader must never reuse a chunk that still has borrowers (it swaps to
// a fresh RecvBuf instead), and borrowers that outlive their handler call
// must deep-copy first (Block.Detach).
type RecvBuf struct {
	b    []byte
	refs atomic.Int32
}

// NewRecvBuf takes a pooled buffer of at least size bytes, armed with one
// reference. The returned buffer's Bytes() has len == cap >= size.
func NewRecvBuf(size int) *RecvBuf {
	rb := &RecvBuf{b: GetBuf(size)}
	rb.b = rb.b[:cap(rb.b)]
	rb.refs.Store(1)
	return rb
}

// Bytes exposes the full backing slice for the reader to fill and slice.
func (rb *RecvBuf) Bytes() []byte { return rb.b }

// Retain adds a reference. Each Retain obligates exactly one Release.
func (rb *RecvBuf) Retain() { rb.refs.Add(1) }

// Release drops one reference; the last one returns the buffer to the pool.
// After calling Release the caller must not touch any alias of the bytes.
func (rb *RecvBuf) Release() {
	switch n := rb.refs.Add(-1); {
	case n == 0:
		b := rb.b
		rb.b = nil
		PutBuf(b)
	case n < 0:
		panic("types: RecvBuf over-released")
	}
}

// Refs reports the current reference count (tests and leak checks only).
func (rb *RecvBuf) Refs() int32 { return rb.refs.Load() }

// ---------------------------------------------------------------------------
// The borrow mark embedded in messages that may alias a receive buffer.

// Borrowed is embedded (like VerifyMark) in the wire messages whose decoded
// form can alias a pooled RecvBuf: ValMsg, BlockRspMsg, VtxRspMsg.
// It is non-wire state — Marshal ignores it — recording which buffer the
// message borrows from so the dispatch layer can return the buffer once the
// message has been handled.
type Borrowed struct {
	frame *RecvBuf
}

// attachFrame records (and retains) the receive buffer the message borrows
// from. Called by the Decoder only when decoding actually aliased something.
func (bo *Borrowed) attachFrame(rb *RecvBuf) {
	rb.Retain()
	bo.frame = rb
}

// BorrowsFrame reports whether the message still aliases a pooled buffer.
// Handlers that store the message's byte slices past their own return must
// deep-copy when this is true.
func (bo *Borrowed) BorrowsFrame() bool { return bo.frame != nil }

// ReleaseFrame drops the message's buffer reference. Idempotent. After the
// call the message's borrowed slices are invalid.
func (bo *Borrowed) ReleaseFrame() {
	if bo.frame != nil {
		bo.frame.Release()
		bo.frame = nil
	}
}

// frameHolder is satisfied by every message embedding Borrowed.
type frameHolder interface{ ReleaseFrame() }

// ReleaseMsg returns m's borrowed receive buffer (if any) to the pool. The
// transport's mailbox calls it after the handler finishes with an inbound
// message; it is a no-op for locally created messages and for message types
// that never borrow.
func ReleaseMsg(m Message) {
	if h, ok := m.(frameHolder); ok {
		h.ReleaseFrame()
	}
}
