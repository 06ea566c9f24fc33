package types

import (
	"sync"
	"testing"
)

// Allocation gates of the transaction path's types layer. sync.Pool drops a
// quarter of its Puts under the race detector, so the counts are asserted
// only in a plain build; the bodies still run (and are race-checked) there.

// TestBufPoolRoundTripAllocs: a GetBuf/PutBuf round trip recycles the slice
// header along with the bytes.
func TestBufPoolRoundTripAllocs(t *testing.T) {
	PutBuf(GetBuf(4096)) // prime the class and the header pool
	allocs := testing.AllocsPerRun(1000, func() {
		b := GetBuf(4096)
		b = append(b, 1, 2, 3)
		PutBuf(b)
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("GetBuf/PutBuf round trip allocates %.2f/op, want 0", allocs)
	}
}

// TestBufPoolConcurrentOwnership: buffers handed out concurrently never
// alias, with the recycled headers in play.
func TestBufPoolConcurrentOwnership(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g byte) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := GetBuf(600)[:600]
				for j := range b {
					b[j] = g
				}
				for j := range b {
					if b[j] != g {
						t.Errorf("buffer shared between owners")
						return
					}
				}
				PutBuf(b)
			}
		}(byte(g))
	}
	wg.Wait()
}

// TestBlockDigestAllocs: hashing a 1 000-transaction real block streams it.
func TestBlockDigestAllocs(t *testing.T) {
	blk := &Block{Round: 9, Source: 2, CreatedAt: 77}
	for i := 0; i < 1000; i++ {
		blk.Txs = append(blk.Txs, make([]byte, 140))
	}
	want := HashBytes(marshalForDigest(blk))
	if blk.Digest() != want {
		t.Fatal("streamed digest differs from the digest of the marshalled form")
	}
	allocs := testing.AllocsPerRun(100, func() { _ = blk.Digest() })
	if allocs != 0 && !raceEnabled {
		t.Fatalf("Block.Digest allocates %.2f/op on a 1000-tx block, want 0", allocs)
	}
}

// marshalForDigest is the digest's definition: the 35-byte header, the count
// and the length-prefixed transactions, as one buffer.
func marshalForDigest(b *Block) []byte {
	buf := make([]byte, 35)
	le := func(off, n int, v uint64) {
		for i := 0; i < n; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	le(0, 8, uint64(b.Round))
	le(8, 2, uint64(b.Source))
	le(10, 4, uint64(b.SynthCount))
	le(14, 4, uint64(b.SynthSize))
	le(18, 8, b.SynthSeed)
	le(26, 8, uint64(b.CreatedAt))
	buf = PutUvarint(buf, uint64(len(b.Txs)))
	for _, tx := range b.Txs {
		buf = PutUvarint(buf, uint64(len(tx)))
		buf = append(buf, tx...)
	}
	return buf
}

// TestValDecodeAllocs: a VAL with a 100-transaction block decodes into five
// objects — message+vertex, both edge lists, the block, its transaction
// index and the one backing array the transactions are copied into — and
// caching the digests adds none.
func TestValDecodeAllocs(t *testing.T) {
	v := &Vertex{Round: 12, Source: 3, CreatedAt: 5,
		StrongEdges: []VertexRef{{Round: 11, Source: 0}, {Round: 11, Source: 1}, {Round: 11, Source: 2}},
		WeakEdges:   []VertexRef{{Round: 9, Source: 2}}}
	blk := &Block{Round: 12, Source: 3}
	for i := 0; i < 100; i++ {
		blk.Txs = append(blk.Txs, make([]byte, 140))
	}
	v.BlockDigest = blk.Digest()
	frame := Encode(&ValMsg{Vertex: v, Block: blk}, nil)
	var dec Decoder

	decode := func() *ValMsg {
		m, err := dec.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		return m.(*ValMsg)
	}
	got := decode()
	if !got.Vertex.Equal(v) || len(got.Vertex.WeakEdges) != 1 || got.Block.Digest() != v.BlockDigest {
		t.Fatal("decoded VAL differs from the encoded one")
	}
	// Growing one edge list must not write into the other's storage.
	_ = append(got.Vertex.StrongEdges, VertexRef{Round: 99})
	if got.Vertex.WeakEdges[0] != v.WeakEdges[0] {
		t.Fatal("strong and weak edges share writable capacity")
	}

	if allocs := testing.AllocsPerRun(200, func() {
		m := decode()
		_ = m.Vertex.DigestCached()
		_ = m.Block.DigestCached()
	}); allocs > 5 && !raceEnabled {
		t.Fatalf("VAL decode + both digests allocates %.0f, want <= 5", allocs)
	}
}
