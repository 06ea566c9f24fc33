package execution

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"clanbft/internal/types"
)

// setBlock is n SETs of keys base..base+n-1, every value size bytes of fill.
func setBlock(base, n, size int, fill byte) *types.Block {
	b := &types.Block{}
	val := bytes.Repeat([]byte{fill}, size)
	for i := 0; i < n; i++ {
		b.Txs = append(b.Txs, EncodeTx(Tx{Op: OpSet, Key: []byte(fmt.Sprintf("key-%06d", base+i)), Value: val}))
	}
	return b
}

// TestApplyOverwriteAllocs: re-writing existing keys with same-size values
// allocates nothing per transaction — no result, no root buffer, no key, no
// value: the state overwrites in place.
func TestApplyOverwriteAllocs(t *testing.T) {
	const txs = 1000
	e := NewExecutor(0, nil)
	e.Apply(cv(setBlock(0, txs, 128, 1)))
	next := cv(setBlock(0, txs, 128, 2))
	perBlock := testing.AllocsPerRun(20, func() { e.Apply(next) })
	t.Logf("%.0f allocations per %d-overwrite block", perBlock, txs)
	if perBlock > 2 {
		t.Fatalf("Apply of %d overwrites allocates %.0f per block, want a small constant (0 per transaction)", txs, perBlock)
	}
	if v, _ := e.Get([]byte("key-000007")); !bytes.Equal(v, bytes.Repeat([]byte{2}, 128)) {
		t.Fatal("overwrite did not land")
	}
}

// TestApplyFreshKeyAllocs: a first write costs no allocation of its own —
// its entry comes out of a slab, its key and value out of shared chunks. A
// 32 KiB chunk holds sixteen 2 KiB values, so those cost a sixteenth each.
func TestApplyFreshKeyAllocs(t *testing.T) {
	for _, c := range []struct {
		size int
		max  float64 // allocations per transaction
	}{{128, 0.1}, {2048, 0.2}} {
		t.Run(fmt.Sprintf("value=%dB", c.size), func(t *testing.T) {
			const txs = 1000
			e := NewExecutor(0, nil)
			e.Apply(cv(setBlock(0, 64, c.size, 1))) // shard maps past their first buckets
			var blocks []*types.Block
			for i := 0; i < 12; i++ {
				blocks = append(blocks, setBlock(1000+i*txs, txs, c.size, 3))
			}
			i := 0
			perBlock := testing.AllocsPerRun(len(blocks)-2, func() {
				e.Apply(cv(blocks[i]))
				i++
			})
			// Map growth, entry slabs and chunks are amortized.
			perTx := perBlock / txs
			t.Logf("%.3f allocations per fresh key", perTx)
			if perTx > c.max {
				t.Fatalf("Apply of fresh keys allocates %.2f per transaction, want <= %.1f", perTx, c.max)
			}
		})
	}
}

// TestFreshKeyAliasing: a small entry's map key and value are neighbouring
// regions of one chunk, and regions are recycled. Overwriting the value — same size, larger, smaller — deleting the key and
// inserting it again never touch a neighbour's key, value or the snapshot.
// Run under -race with a reader, so a write that reached a map key races.
// Snapshots are compared after their root and count, which history moves.
func TestFreshKeyAliasing(t *testing.T) {
	e := NewExecutor(0, nil)
	k1, k2 := []byte("key-1"), []byte("key-2")
	set := func(key []byte, size int, fill byte) {
		e.Apply(cv(&types.Block{Txs: [][]byte{EncodeTx(Tx{Op: OpSet, Key: key, Value: bytes.Repeat([]byte{fill}, size)})}}))
	}
	set(k1, 64, 1)
	set(k2, 64, 2)
	want2 := bytes.Repeat([]byte{2}, 64)
	stop := make(chan struct{})
	done := make(chan struct{})
	defer func() { close(stop); <-done }()
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, k := range e.state.keys() {
				e.state.read(nil, []byte(k)) // reads the key's bytes
			}
		}
	}()
	steps := []struct {
		name string
		do   func()
		want []byte // k1's value afterwards; nil = absent
	}{
		{"same size", func() { set(k1, 64, 3) }, bytes.Repeat([]byte{3}, 64)},
		{"larger", func() { set(k1, 200, 4) }, bytes.Repeat([]byte{4}, 200)},
		{"smaller", func() { set(k1, 16, 5) }, bytes.Repeat([]byte{5}, 16)},
		{"delete", func() {
			e.Apply(cv(&types.Block{Txs: [][]byte{EncodeTx(Tx{Op: OpDel, Key: k1})}}))
		}, nil},
		{"insert again", func() { set(k1, 64, 6) }, bytes.Repeat([]byte{6}, 64)},
	}
	for _, st := range steps {
		st.do()
		got, ok := e.Get(k1)
		if ok != (st.want != nil) || !bytes.Equal(got, st.want) {
			t.Fatalf("%s: key-1 = %v (present %v), want %v", st.name, got, ok, st.want)
		}
		if v, _ := e.Get(k2); !bytes.Equal(v, want2) {
			t.Fatalf("%s: key-2 = %v, want %v", st.name, v, want2)
		}
		keys := e.state.keys()
		sort.Strings(keys)
		wantKeys := []string{"key-1", "key-2"}
		if st.want == nil {
			wantKeys = wantKeys[1:]
		}
		if fmt.Sprint(keys) != fmt.Sprint(wantKeys) {
			t.Fatalf("%s: map keys %q, want %q", st.name, keys, wantKeys)
		}
		ref := NewExecutor(0, nil)
		if st.want != nil {
			ref.Apply(cv(&types.Block{Txs: [][]byte{EncodeTx(Tx{Op: OpSet, Key: k1, Value: st.want})}}))
		}
		ref.Apply(cv(&types.Block{Txs: [][]byte{EncodeTx(Tx{Op: OpSet, Key: k2, Value: want2})}}))
		if !bytes.Equal(snapState(e.Snapshot()), snapState(ref.Snapshot())) {
			t.Fatalf("%s: snapshot differs from a fresh state holding the same keys and values", st.name)
		}
	}
}

// churnValue is key i's value of size bytes: i in the first two bytes (when
// they fit), then fill, so a reader can tell a value from its neighbour's.
func churnValue(i, size int, fill byte) []byte {
	v := bytes.Repeat([]byte{fill}, size)
	if size >= 2 {
		v[0], v[1] = byte(i), byte(i>>8)
	}
	return v
}

// TestStateChurnBounded: random puts, deletes, growths and shrinks over a
// fixed key set, with a reader running alongside (run under -race). Recycled
// regions keep the chunks the state retains within twice the bytes its live
// keys and carved values hold, and no write ever reaches a neighbour: every
// value read back is its own key's, whole, and at the end the state holds
// exactly the model's keys and values. One size mix stays near the small
// classes; the other reaches past bigMax, through the large ones.
func TestStateChurnBounded(t *testing.T) {
	for _, mix := range []struct{ size, grow int }{{600, 300}, {4500, 1500}} {
		t.Run(fmt.Sprintf("values<%dB", mix.size), func(t *testing.T) { churn(t, mix.size, mix.grow) })
	}
}

// churn is TestStateChurnBounded over fresh values of up to size bytes that
// grow by up to grow bytes.
func churn(t *testing.T, size, grow int) {
	const keys, ops = 1500, 30000
	s := newKVState()
	key := func(i int) []byte { return []byte(fmt.Sprintf("churn-key-%04d", i)) }
	stop := make(chan struct{})
	done := make(chan struct{})
	var bad atomic.Value
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(2))
		var buf []byte
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := rng.Intn(keys)
			v, _, ok := s.read(buf[:0], key(i))
			buf = v
			if !ok || len(v) == 0 {
				continue
			}
			body := v
			if len(v) >= 2 {
				if int(v[0])|int(v[1])<<8 != i {
					bad.Store(fmt.Sprintf("key %d read a value tagged %d", i, int(v[0])|int(v[1])<<8))
				}
				body = v[2:]
			}
			for _, b := range body {
				if b != body[0] {
					bad.Store(fmt.Sprintf("key %d read a torn value", i))
					break
				}
			}
		}
	}()
	defer func() { close(stop); <-done }()

	rng := rand.New(rand.NewSource(1))
	model := make(map[int][]byte, keys)
	carved := func(n int) int { // the bytes of n that live in chunks
		if n <= bigMax {
			return n
		}
		return 0
	}
	live := func() (n int) {
		for i, v := range model {
			n += carved(len(key(i))) + carved(len(v))
		}
		return n
	}
	for op := 1; op <= ops; op++ {
		i := rng.Intn(keys)
		cur, ok := model[i]
		n := rng.Intn(size)
		switch c := rng.Intn(4); {
		case !ok: // put
		case c == 0: // delete
			s.del(key(i))
			delete(model, i)
			continue
		case c == 1: // grow
			n = len(cur) + 1 + rng.Intn(grow)
		case c == 2: // shrink out of the slot
			n = len(cur) / 3
		}
		v := churnValue(i, n, byte(op))
		s.put(key(i), v, uint64(op))
		model[i] = v
		if op%1000 == 0 && op > ops/4 {
			if l := live(); s.chunkBytes > 2*l {
				t.Fatalf("after %d ops the state retains %d chunk bytes for %d live bytes (> 2x)", op, s.chunkBytes, l)
			}
		}
	}
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	t.Logf("%d chunk bytes retained for %d live bytes over %d keys", s.chunkBytes, live(), len(model))
	if n := s.length(); n != len(model) {
		t.Fatalf("state holds %d keys, model %d", n, len(model))
	}
	for i := 0; i < keys; i++ {
		v, _, ok := s.read(nil, key(i))
		if want, in := model[i]; ok != in || !bytes.Equal(v, want) {
			t.Fatalf("key %d: state %v/%d bytes, model %v/%d bytes", i, ok, len(v), in, len(want))
		}
	}
}

// TestReadsDoNotAliasState: bytes handed out by Get and GetVersioned are the
// caller's — a later SET of the same key, which overwrites the stored array
// in place, must not change them. GetVersioned appends into the caller's
// buffer: a recycled one is reused, not replaced, and only the caller
// writes it.
func TestReadsDoNotAliasState(t *testing.T) {
	e := NewExecutor(0, nil)
	key := []byte("key-000000")
	e.Apply(cv(setBlock(0, 1, 64, 7)))
	got, ok := e.Get(key)
	gotV, ver, okV := e.GetVersioned(nil, key)
	buf := make([]byte, 8, 128)
	gotB, verB, okB := e.GetVersioned(buf[:0], key)
	if !ok || !okV || !okB || ver != 1 || verB != 1 {
		t.Fatalf("Get ok=%v GetVersioned ok=%v/%v ver=%d/%d", ok, okV, okB, ver, verB)
	}
	if &gotB[0] != &buf[0] {
		t.Fatal("GetVersioned did not append into the buffer it was given")
	}
	e.Apply(cv(setBlock(0, 1, 64, 9)))
	want := bytes.Repeat([]byte{7}, 64)
	if !bytes.Equal(got, want) || !bytes.Equal(gotV, want) || !bytes.Equal(gotB, want) {
		t.Fatal("a later SET changed bytes an earlier read returned")
	}
	if again, _, _ := e.GetVersioned(gotB[:0], key); !bytes.Equal(again, bytes.Repeat([]byte{9}, 64)) || &again[0] != &buf[0] {
		t.Fatal("a read into a recycled buffer did not see the later SET in place")
	}
	if now, _ := e.Get(key); !bytes.Equal(now, bytes.Repeat([]byte{9}, 64)) {
		t.Fatal("the later SET is not visible")
	}
	// And the other direction: scribbling on a returned value leaves the
	// state alone.
	now, _ := e.Get(key)
	now[0] = 0xFF
	if again, _ := e.Get(key); again[0] != 9 {
		t.Fatal("writing to a returned value reached the state")
	}
}

// TestStateDoesNotAliasBlocks: the state copies what it keeps, so a block's
// memory — which may be pooled or reused once executed — can change after
// Apply without changing state, root or snapshot.
func TestStateDoesNotAliasBlocks(t *testing.T) {
	e := NewExecutor(0, nil)
	blk := setBlock(0, 50, 96, 5)
	e.Apply(cv(blk))
	root, snap := e.StateRoot(), e.Snapshot()
	for _, tx := range blk.Txs {
		for i := range tx {
			tx[i] = 0xEE
		}
	}
	if e.StateRoot() != root {
		t.Fatal("mutating an applied block moved the state root")
	}
	if !bytes.Equal(e.Snapshot(), snap) {
		t.Fatal("mutating an applied block changed the state")
	}
	if v, _ := e.Get([]byte("key-000049")); !bytes.Equal(v, bytes.Repeat([]byte{5}, 96)) {
		t.Fatal("state aliases the block's bytes")
	}
}

// TestOverwriteReusesOrReplacesValueArray pins put's reuse rule: same size
// and modest shrinkage overwrite in place; growth, or a value filling less
// than half the array, gets an exact-size array, so one large write does not
// pin its capacity under a small value forever.
func TestOverwriteReusesOrReplacesValueArray(t *testing.T) {
	s := newKVState()
	k := []byte("k")
	s.put(k, make([]byte, 100), 1)
	base := &s.shardOf(k).m["k"].value()[0]
	for _, c := range []struct {
		size  int
		reuse bool
	}{{100, true}, {60, true}, {100, true}, {40, false}, {41, false}, {0, false}} {
		s.put(k, bytes.Repeat([]byte{byte(c.size)}, c.size), 2)
		val := s.shardOf(k).m["k"].value()
		if len(val) != c.size {
			t.Fatalf("stored %d bytes, want %d", len(val), c.size)
		}
		same := c.size > 0 && &val[0] == base
		if same != c.reuse {
			t.Fatalf("put of %d bytes into a %d-byte array: reused=%v, want %v", c.size, cap(val), same, c.reuse)
		}
		if c.size > 0 {
			base = &val[0]
		}
	}
}

// snapState is a snapshot's keys and values: what follows the root and the
// executed count.
func snapState(snap []byte) []byte {
	_, rest, err := types.Uvarint(snap[32:])
	if err != nil {
		panic(err)
	}
	return rest
}
