package execution

import (
	"bytes"
	"fmt"
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

// TestApplyFreshKeyAllocs: a first write costs its map key and its value —
// its entry comes out of a slab — and nothing else.
func TestApplyFreshKeyAllocs(t *testing.T) {
	const txs = 1000
	e := NewExecutor(0, nil)
	e.Apply(cv(setBlock(0, 64, 128, 1))) // shard maps past their first buckets
	var blocks []*types.Block
	for i := 0; i < 12; i++ {
		blocks = append(blocks, setBlock(1000+i*txs, txs, 128, 3))
	}
	i := 0
	perBlock := testing.AllocsPerRun(len(blocks)-2, func() {
		e.Apply(cv(blocks[i]))
		i++
	})
	// Map growth and entry slabs are amortized on top of the two; a tenth
	// covers them.
	if perTx := perBlock / txs; perTx > 2.1 {
		t.Fatalf("Apply of fresh keys allocates %.2f per transaction, want <= 2 (key, value)", perTx)
	}
}

// TestReadsDoNotAliasState: bytes handed out by Get and GetVersioned are the
// caller's — a later SET of the same key, which overwrites the stored array
// in place, must not change them.
func TestReadsDoNotAliasState(t *testing.T) {
	e := NewExecutor(0, nil)
	key := []byte("key-000000")
	e.Apply(cv(setBlock(0, 1, 64, 7)))
	got, ok := e.Get(key)
	gotV, ver, okV := e.GetVersioned(key)
	if !ok || !okV || ver != 1 {
		t.Fatalf("Get ok=%v GetVersioned ok=%v ver=%d", ok, okV, ver)
	}
	e.Apply(cv(setBlock(0, 1, 64, 9)))
	want := bytes.Repeat([]byte{7}, 64)
	if !bytes.Equal(got, want) || !bytes.Equal(gotV, want) {
		t.Fatal("a later SET changed bytes an earlier read returned")
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
	base := &s.shardOf(k).m["k"].val[0]
	for _, c := range []struct {
		size  int
		reuse bool
	}{{100, true}, {60, true}, {100, true}, {40, false}, {41, false}, {0, false}} {
		s.put(k, bytes.Repeat([]byte{byte(c.size)}, c.size), 2)
		val := s.shardOf(k).m["k"].val
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
