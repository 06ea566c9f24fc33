package types

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Size-classed scratch buffers feeding Encode/Marshal. Encoding a message for
// the wire (or a record for the WAL) needs a byte slice that lives exactly as
// long as the frame is in flight; allocating one per message makes the
// garbage collector a bottleneck at multi-MB proposal sizes. GetBuf/PutBuf
// recycle those slices through power-of-two size classes.
//
// Ownership rules: a buffer obtained from GetBuf is owned exclusively by the
// caller until PutBuf; PutBuf transfers it back to the pool and the caller
// must not touch it (or any alias of it) afterwards. Returning a buffer the
// pool did not hand out is allowed — it is classified by capacity — so a
// slice grown past its class (e.g. by append) recycles at its new size.

const (
	// minBufClass is the smallest pooled class (1<<9 = 512 B); smaller
	// buffers are cheaper to allocate than to pool.
	minBufClass = 9
	// maxBufClass is the largest pooled class (1<<26 = 64 MiB), matching the
	// transport's maximum frame size.
	maxBufClass = 26
)

// bufPools hold *[]byte so a Put does not box a slice header. The headers
// themselves circulate through bufHeaders: GetBuf parks the one it emptied,
// PutBuf takes it back, so a Get/Put round trip allocates nothing.
var (
	bufPools   [maxBufClass + 1]sync.Pool
	bufHeaders sync.Pool
)

// bufGets/bufPuts count GetBuf and PutBuf calls. Every GetBuf must eventually
// be balanced by exactly one PutBuf (directly, or through the last release of
// a refcounted frame built on it); the pair therefore doubles as a
// leak detector for the pooled-buffer ownership contract — see PoolCheck.
var (
	bufGets atomic.Uint64
	bufPuts atomic.Uint64
)

// GetBuf returns a zero-length buffer with capacity >= size. Callers append
// into it and hand it back with PutBuf when the encoded bytes are no longer
// referenced anywhere.
func GetBuf(size int) []byte {
	bufGets.Add(1)
	c := bufClass(size)
	if c > maxBufClass {
		return make([]byte, 0, size) // beyond the largest class: unpooled
	}
	if p := bufPools[c].Get(); p != nil {
		h := p.(*[]byte)
		b := (*h)[:0]
		*h = nil
		bufHeaders.Put(h)
		return b
	}
	return make([]byte, 0, 1<<c)
}

// PutBuf recycles a buffer previously obtained from GetBuf (or any scratch
// slice the caller no longer needs). The buffer is filed under the largest
// class its capacity fully covers, so a Get from that class always has the
// advertised room.
func PutBuf(b []byte) {
	if b == nil {
		return
	}
	bufPuts.Add(1)
	c := bits.Len(uint(cap(b))) - 1 // largest c with 1<<c <= cap(b)
	if c < minBufClass {
		return // too small to be worth pooling
	}
	if c > maxBufClass {
		c = maxBufClass
	}
	h, _ := bufHeaders.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b[:0]
	bufPools[c].Put(h)
}

// bufClass returns the smallest class whose buffers hold size bytes.
func bufClass(size int) int {
	if size <= 1<<minBufClass {
		return minBufClass
	}
	return bits.Len(uint(size - 1))
}

// ---------------------------------------------------------------------------
// Pool leak checking.

// PoolCheck snapshots the pool's Get/Put counters so a test harness can prove
// that a run returned every buffer it took (no leaked frames or read
// buffers). Usage: pc := StartPoolCheck(); ...run...; pc.AssertBalanced(t).
type PoolCheck struct {
	gets, puts uint64
}

// StartPoolCheck records the current pool counters.
func StartPoolCheck() *PoolCheck {
	// Order matters: reading puts first can only under-count leaks, never
	// fabricate one, if another goroutine is mid-cycle.
	p := bufPuts.Load()
	g := bufGets.Load()
	return &PoolCheck{gets: g, puts: p}
}

// Outstanding returns buffers taken minus buffers returned since the
// checkpoint. Zero means the ownership contract balanced.
func (pc *PoolCheck) Outstanding() int64 {
	g := bufGets.Load() - pc.gets
	p := bufPuts.Load() - pc.puts
	return int64(g) - int64(p)
}

// errorfer is the slice of testing.TB the checker needs (kept as a local
// interface so this bottom-of-the-import-graph package stays testing-free).
type errorfer interface {
	Helper()
	Errorf(format string, args ...any)
}

// AssertBalanced fails t if buffers are still outstanding. Release paths may
// run on goroutines that are only quiescing (mailbox drains, writer
// shutdowns), so the check polls briefly before declaring a leak.
func (pc *PoolCheck) AssertBalanced(t errorfer) {
	t.Helper()
	// ~500 ms worst case; a fixed short poll keeps tests fast and un-flaky.
	for i := 0; i < 100; i++ {
		if pc.Outstanding() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("buffer pool leak: %d buffer(s) taken but never returned", pc.Outstanding())
}
