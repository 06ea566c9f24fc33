package execution

import (
	"math/bits"
	"strings"
	"sync"
	"unsafe"
)

// Sharded, versioned key-value state. The executor writes from its one
// goroutine while the gateway's read goroutines call Get and GetVersioned
// concurrently, so every access takes a lock; splitting the keys over
// mutex-guarded shards keyed by a key hash keeps those readers from queueing
// behind the writer on one lock. The split also stays because the executor's
// state is the largest thing on the heap of a 2 KiB-value workload (tens of
// megabytes), and one map in place of 64 is an unmeasured change to it.
// Every stored value carries the sequence number of the transaction that
// wrote it — the "version" — which gateway reads match responders on.
// Versions never influence results or the state root.
//
// Ownership: the state owns every byte it stores and nothing else does. put
// copies the value in — into the key's existing storage when it fits, so an
// overwrite allocates nothing — and read copies it out under the shard lock,
// so no caller ever holds memory a later write will change, and the state
// never aliases a block's or a pooled buffer's memory.
//
// Memory: a fresh key costs no allocation of its own. Entries come from
// slabs, and keys and values are carved from stateChunk-byte chunks in two
// streams. A key or a value of at most slotMax bytes takes a region rounded
// up to slotAlign bytes of the small stream's chunks. A value of up to bigMax
// bytes takes one of the large stream's, so 2 KiB values do not share chunks
// with 16-byte keys, in coarse classes: quarter-power-of-two steps (640, 768,
// 896, 1024, 1280, ... 2048, 2560, ... 4096), so a 2 KiB value fits exactly
// and the classes, each with a peak of its own, stay few. A larger value gets
// an array of its own. The shard map's key is a string over the key's region,
// which nothing writes while the key lives.
// State memory is recycled on delete, not freed: del, and a value that
// outgrows its region or fills less than half of it, return the region to a
// free list of its size class, and the next key or value of that class takes
// it. Chunks are never given back, so what the state retains is bounded by
// the most it ever held of each class, not by its history
// (TestStateChurnBounded).
//
// put and del run on the executor's goroutine only, so the allocator takes
// no lock of its own: a region is released under the lock of the shard whose
// key let it go, after the map and the entry stopped pointing at it, and only
// a later put on the same goroutine reuses it.
const (
	stateShards = 64
	slotMax     = 512
	slotAlign   = 16
	bigMax      = 4 << 10
	stateChunk  = 32 << 10
)

// versioned is one key's entry. Shards hold pointers so that an overwrite
// updates the entry without a map assignment, which would allocate the key.
// Entries are carved from slabs (newEntry) and die only in del, which keeps
// them for the next fresh key. The value is a pointer and two lengths rather
// than a slice, so the key's region fits in the 32 bytes a slice and a
// version took.
type versioned struct {
	val *byte  // the value's storage; nil when it has none
	key *byte  // the map key's region; nil when the key is not carved
	n   uint32 // the value's length
	c   uint32 // its storage's capacity: carved iff 0 < c <= bigMax
	ver uint64 // sequence of the writing transaction (1-based)
}

// value is the stored value, aliasing the state's storage.
func (e *versioned) value() []byte { return unsafe.Slice(e.val, e.c)[:e.n] }

type kvShard struct {
	mu sync.Mutex
	m  map[string]*versioned
}

type kvState struct {
	shards [stateShards]kvShard

	// slab is the unused tail of the newest entry slab: 255 entries, which
	// with the allocator's header fill the 8 KiB size class exactly.
	slab        []versioned
	freeEntries []*versioned // entries del retired
	small       chunkStream  // regions of at most slotMax bytes
	large       chunkStream  // regions of slotMax+1 to bigMax bytes
	chunkBytes  int          // bytes of chunks allocated: all carved storage retains
}

// chunkStream carves regions from its own chunks.
type chunkStream struct {
	chunk []byte    // the unused tail of the newest chunk
	free  [][]*byte // released regions by size class
}

func (s *kvState) newEntry() (e *versioned) {
	if k := len(s.freeEntries); k > 0 {
		e, s.freeEntries = s.freeEntries[k-1], s.freeEntries[:k-1]
		return e
	}
	if len(s.slab) == 0 {
		s.slab = make([]versioned, 255)
	}
	e, s.slab = &s.slab[0], s.slab[1:]
	return e
}

// classOf returns the stream a region for size (1..bigMax) bytes comes from,
// its size class there and the class's region size. Small classes step by
// slotAlign; a large one rounds size up to a quarter of the power of two
// below it.
func (s *kvState) classOf(size int) (st *chunkStream, k, region int) {
	if size <= slotMax {
		k = (size + slotAlign - 1) / slotAlign
		return &s.small, k, k * slotAlign
	}
	p := bits.Len(uint(size-1)) - 1 // 1<<p < size <= 2<<p
	step := 1 << p / 4
	q := (size - 1<<p + step - 1) / step // 1..4
	return &s.large, 4*(p-bits.Len(slotMax)+1) + q - 1, 1<<p + q*step
}

// carve returns a region for size (1..bigMax) bytes: a released one of its
// size class, or the next bytes of its stream's current chunk.
func (s *kvState) carve(size int) *byte {
	st, k, region := s.classOf(size)
	if l := st.free[k]; len(l) > 0 {
		st.free[k] = l[:len(l)-1]
		return l[len(l)-1]
	}
	if len(st.chunk) < region {
		st.chunk = make([]byte, stateChunk)
		s.chunkBytes += stateChunk
	}
	p := &st.chunk[0]
	st.chunk = st.chunk[region:]
	return p
}

// release returns a region carve handed out for size bytes.
func (s *kvState) release(p *byte, size int) {
	st, k, _ := s.classOf(size)
	st.free[k] = append(st.free[k], p)
}

func newKVState() *kvState {
	s := &kvState{}
	s.small.free = make([][]*byte, slotMax/slotAlign+1)
	s.large.free = make([][]*byte, 4*(bits.Len(bigMax)-bits.Len(slotMax)))
	for i := range s.shards {
		s.shards[i].m = map[string]*versioned{}
	}
	return s
}

// shardOf hashes a key to its shard (FNV-1a).
func (s *kvState) shardOf(key []byte) *kvShard {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &s.shards[h%stateShards]
}

// read appends the stored value to dst and returns it with the version of
// the write it observed (0 = written before this executor's history began).
// The copy happens under the shard lock, so a reader never sees a value
// half-overwritten by the executor.
func (s *kvState) read(dst, key []byte) (val []byte, ver uint64, ok bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	e := sh.m[string(key)]
	if e != nil {
		dst, ver, ok = append(dst, e.value()...), e.ver, true
	}
	sh.mu.Unlock()
	return dst, ver, ok
}

// put copies val into the state stamped with ver.
func (s *kvState) put(key, val []byte, ver uint64) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	e := sh.m[string(key)]
	if e == nil {
		e = s.newEntry()
		sh.m[s.mapKey(e, key)] = e
	}
	s.store(e, val)
	e.ver = ver
	sh.mu.Unlock()
}

// mapKey returns a fresh key's map key: a string over a carved copy, or past
// slotMax a copy of its own.
func (s *kvState) mapKey(e *versioned, key []byte) string {
	if len(key) == 0 || len(key) > slotMax {
		return string(key)
	}
	e.key = s.carve(len(key))
	copy(unsafe.Slice(e.key, len(key)), key)
	return unsafe.String(e.key, len(key))
}

// store copies val into e: in place when it fits e's storage and fills at
// least half of it; otherwise val gets new storage of its exact size and the
// old goes back, so one large write does not pin its capacity under a small
// value forever.
func (s *kvState) store(e *versioned, val []byte) {
	n := len(val)
	if n > int(e.c) || int(e.c) > 2*n {
		old, oldCap := e.val, e.c
		switch {
		case n == 0:
			e.val = nil
		case n <= bigMax:
			e.val = s.carve(n)
		default:
			e.val = unsafe.SliceData(make([]byte, n))
		}
		e.c = uint32(n)
		s.releaseValue(old, oldCap)
	}
	e.n = uint32(n)
	copy(e.value(), val)
}

// releaseValue returns value storage p of capacity c if it was carved.
func (s *kvState) releaseValue(p *byte, c uint32) {
	if c > 0 && c <= bigMax {
		s.release(p, int(c))
	}
}

// del removes the key and recycles its memory.
func (s *kvState) del(key []byte) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if e := sh.m[string(key)]; e != nil {
		delete(sh.m, string(key))
		if e.key != nil {
			s.release(e.key, len(key))
		}
		s.releaseValue(e.val, e.c)
		*e = versioned{}
		s.freeEntries = append(s.freeEntries, e)
	}
	sh.mu.Unlock()
}

// length counts live keys.
func (s *kvState) length() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		n += len(s.shards[i].m)
		s.shards[i].mu.Unlock()
	}
	return n
}

// keys lists copies of every live key (unsorted; Snapshot sorts): a map key's
// region is reused once its key is deleted.
func (s *kvState) keys() []string {
	out := make([]string, 0, s.length())
	for i := range s.shards {
		s.shards[i].mu.Lock()
		for k := range s.shards[i].m {
			out = append(out, strings.Clone(k))
		}
		s.shards[i].mu.Unlock()
	}
	return out
}
