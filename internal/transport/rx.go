package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"clanbft/internal/types"
)

// rxChunk is the size of a connection's read buffer. One buffer absorbs many
// small frames per Read syscall.
const rxChunk = 64 << 10

// FrameReader slices `uint32 length | body` frames out of one pooled read
// buffer per connection, reused in place. A frame is valid until the next
// call to Next: its caller decodes it, copying what it keeps, before asking
// for another. The peer transport's read loops and the client gateway both
// read through it.
//
//   - A frame that straddles the buffer's end has its tail moved to the
//     front. The moved bytes are charged to allocBytes
//     (transport.rx_alloc_bytes).
//   - A frame larger than the buffer is read into a pooled buffer that grows
//     with the bytes actually received, never with the bytes its length
//     prefix promises, and that goes back to the pool at the next call. Its
//     size is charged to allocBytes.
type FrameReader struct {
	r          io.Reader
	buf        []byte // the connection's buffer; len == cap
	off        int    // consume offset into buf
	end        int    // fill offset into buf
	big        []byte // the last oversized frame's buffer, until the next call
	limit      int    // max accepted frame length (maxFrame unless lowered)
	allocBytes *atomic.Uint64
}

// NewFrameReader wraps r. allocBytes, when non-nil, accrues the reader's
// tail moves and oversized-frame buffers; nil uses a private counter.
func NewFrameReader(r io.Reader, allocBytes *atomic.Uint64) *FrameReader {
	if allocBytes == nil {
		allocBytes = new(atomic.Uint64)
	}
	buf := types.GetBuf(rxChunk)
	return &FrameReader{r: r, buf: buf[:cap(buf)], limit: maxFrame, allocBytes: allocBytes}
}

// SetMaxFrame lowers the accepted frame length (default: the transport-wide
// 64 MiB bound). A length prefix above the limit is a terminal protocol
// error; client-facing listeners set a much smaller cap.
func (fr *FrameReader) SetMaxFrame(n int) {
	if n > 0 && n <= maxFrame {
		fr.limit = n
	}
}

// Next returns the body of the next frame, valid until the next call. Errors
// (short read, zero or oversized length prefix) are terminal: the caller must
// close the connection.
func (fr *FrameReader) Next() ([]byte, error) {
	if fr.big != nil {
		types.PutBuf(fr.big)
		fr.big = nil
	}
	if err := fr.ensure(4); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(fr.buf[fr.off:])
	if n == 0 || n > uint32(fr.limit) {
		return nil, fmt.Errorf("transport: frame length %d out of range", n)
	}
	fr.off += 4
	if int(n) > len(fr.buf) {
		return fr.readBig(int(n))
	}
	if err := fr.ensure(int(n)); err != nil {
		return nil, err
	}
	frame := fr.buf[fr.off : fr.off+int(n) : fr.off+int(n)]
	fr.off += int(n)
	return frame, nil
}

// ensure buffers at least n <= len(buf) contiguous unconsumed bytes, moving
// the unconsumed tail to the front when they would run past the buffer's end.
func (fr *FrameReader) ensure(n int) error {
	if fr.off+n > len(fr.buf) {
		tail := copy(fr.buf, fr.buf[fr.off:fr.end])
		fr.allocBytes.Add(uint64(tail))
		fr.off, fr.end = 0, tail
	}
	for fr.end-fr.off < n {
		m, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += m
		if fr.end-fr.off >= n {
			return nil
		}
		if err != nil {
			if err == io.EOF && fr.end-fr.off > 0 {
				return io.ErrUnexpectedEOF // mid-frame EOF
			}
			return err
		}
	}
	return nil
}

// readBig reads an n-byte frame that does not fit the connection's buffer.
// Its buffer starts at twice the connection's and doubles only when full, so
// a length prefix that promises more than the peer sends costs twice what it
// did send at most, or twice the connection's buffer. Reads stop at the
// frame's end: the connection's buffer is empty afterwards.
func (fr *FrameReader) readBig(n int) ([]byte, error) {
	big := append(types.GetBuf(2*rxChunk), fr.buf[fr.off:fr.end]...)
	fr.off, fr.end = 0, 0
	for len(big) < n {
		if len(big) == cap(big) {
			grown := append(types.GetBuf(min(2*cap(big), n)), big...)
			types.PutBuf(big)
			big = grown
		}
		m, err := fr.r.Read(big[len(big):min(cap(big), n)])
		big = big[:len(big)+m]
		if err != nil && len(big) < n {
			fr.allocBytes.Add(uint64(len(big)))
			types.PutBuf(big)
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	fr.allocBytes.Add(uint64(n))
	fr.big = big
	return big[:n:n], nil
}

// Close returns the reader's buffers to the pool.
func (fr *FrameReader) Close() {
	types.PutBuf(fr.buf)
	types.PutBuf(fr.big)
	fr.buf, fr.big = nil, nil
}
