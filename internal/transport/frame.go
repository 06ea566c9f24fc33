package transport

import (
	"sync"
	"sync/atomic"

	"clanbft/internal/types"
)

// frame is one encoded wire message, marshaled exactly once and shared by
// every peer out-queue it is enqueued to. Broadcasting a multi-MB proposal to
// a 150-node tribe used to marshal the message 150 times; with frames the
// bytes exist once and only the reference fans out.
//
// The byte slice is backed by the types buffer pool. Reference counting keeps
// the recycling safe: the encoder sets refs to the number of holders it will
// hand the frame to, every handoff that fails and every writer goroutine that
// finishes with the frame calls release, and the last release returns the
// buffer to the pool — and the header that guarded it to framePool, so the
// steady state allocates neither. A frame's bytes are immutable between
// encode and the final release; after its own release a holder touches
// neither the bytes nor the header.
type frame struct {
	b    []byte
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// encodeFrame marshals m once into a pooled buffer and arms the frame for
// refs holders. refs must equal the number of release calls that will follow,
// or the buffer leaks (harmless — the GC reclaims it — but unpooled).
func encodeFrame(m types.Message, refs int32) *frame {
	f := framePool.Get().(*frame)
	f.b = types.Encode(m, types.GetBuf(1+m.WireSize()))
	f.refs.Store(refs)
	return f
}

// release drops one reference; the last holder returns the buffer and the
// header to their pools. After calling release the caller must not touch f.
func (f *frame) release() {
	if f.refs.Add(-1) == 0 {
		b := f.b
		f.b = nil
		types.PutBuf(b)
		framePool.Put(f)
	}
}
