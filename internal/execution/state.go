package execution

import "sync"

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
// copies the value in — into the key's existing array when it fits, so an
// overwrite allocates nothing — and read copies it out under the shard lock,
// so no caller ever holds memory a later write will change, and the state
// never aliases a block's or a pooled buffer's memory.
const stateShards = 64

// versioned is one key's entry. Shards hold pointers so that an overwrite
// updates the entry without a map assignment, which would allocate the key.
// Entries are carved from slabs (newEntry) and die only in del, which keeps
// them for the next fresh key.
type versioned struct {
	val []byte
	ver uint64 // sequence of the writing transaction (1-based)
}

type kvShard struct {
	mu sync.Mutex
	m  map[string]*versioned
}

type kvState struct {
	shards [stateShards]kvShard

	entryMu sync.Mutex
	// slab is the unused tail of the newest entry slab: 255 entries, which
	// with the allocator's header fill the 8 KiB size class exactly.
	slab []versioned
	free []*versioned // entries del retired
}

func (s *kvState) newEntry() (e *versioned) {
	s.entryMu.Lock()
	defer s.entryMu.Unlock()
	if k := len(s.free); k > 0 {
		e, s.free = s.free[k-1], s.free[:k-1]
		return e
	}
	if len(s.slab) == 0 {
		s.slab = make([]versioned, 255)
	}
	e, s.slab = &s.slab[0], s.slab[1:]
	return e
}

func newKVState() *kvState {
	s := &kvState{}
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
		dst, ver, ok = append(dst, e.val...), e.ver, true
	}
	sh.mu.Unlock()
	return dst, ver, ok
}

// put copies val into the state stamped with ver. The key's old array is
// reused when the new value fits and fills at least half of it; a fresh key
// costs its map key and its value.
func (s *kvState) put(key, val []byte, ver uint64) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	e := sh.m[string(key)]
	if e == nil {
		e = s.newEntry()
		sh.m[string(key)] = e
	}
	if len(val) <= cap(e.val) && cap(e.val) <= 2*len(val) {
		e.val = e.val[:len(val)]
	} else {
		e.val = make([]byte, len(val))
	}
	copy(e.val, val)
	e.ver = ver
	sh.mu.Unlock()
}

// del removes the key.
func (s *kvState) del(key []byte) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if e := sh.m[string(key)]; e != nil {
		delete(sh.m, string(key))
		*e = versioned{}
		s.entryMu.Lock()
		s.free = append(s.free, e)
		s.entryMu.Unlock()
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

// keys lists every live key (unsorted; Snapshot sorts).
func (s *kvState) keys() []string {
	out := make([]string, 0, s.length())
	for i := range s.shards {
		s.shards[i].mu.Lock()
		for k := range s.shards[i].m {
			out = append(out, k)
		}
		s.shards[i].mu.Unlock()
	}
	return out
}
