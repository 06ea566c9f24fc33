package types

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapOps(t *testing.T) {
	bm := NewBitmap(100)
	ids := []NodeID{0, 7, 8, 63, 64, 99}
	for _, id := range ids {
		BitmapSet(bm, id)
	}
	if got := BitmapCount(bm); got != len(ids) {
		t.Fatalf("count = %d, want %d", got, len(ids))
	}
	for _, id := range ids {
		if !BitmapHas(bm, id) {
			t.Fatalf("bit %d not set", id)
		}
	}
	if BitmapHas(bm, 1) || BitmapHas(bm, 98) {
		t.Fatal("unexpected bit set")
	}
	var members []NodeID
	BitmapForEach(bm, func(id NodeID) bool { members = append(members, id); return true })
	if len(members) != len(ids) {
		t.Fatalf("members = %v", members)
	}
	for i, id := range ids {
		if members[i] != id {
			t.Fatalf("members[%d] = %d, want %d", i, members[i], id)
		}
	}
}

func TestBitmapProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		bm := NewBitmap(1 << 16)
		set := map[NodeID]bool{}
		for _, r := range raw {
			id := NodeID(r)
			BitmapSet(bm, id)
			set[id] = true
		}
		if BitmapCount(bm) != len(set) {
			return false
		}
		for id := range set {
			if !BitmapHas(bm, id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randVertex(rng *rand.Rand) *Vertex {
	v := &Vertex{
		Round:  Round(rng.Intn(1000)),
		Source: NodeID(rng.Intn(200)),
	}
	rng.Read(v.BlockDigest[:])
	// Strong-edge sources are distinct, as the protocol guarantees
	// (validateVertex): the signer-bitmap encoding cannot represent
	// duplicates.
	for _, src := range rng.Perm(200)[:rng.Intn(5)] {
		var r VertexRef
		r.Round = v.Round - 1
		r.Source = NodeID(src)
		v.StrongEdges = append(v.StrongEdges, r)
	}
	for i := 0; i < rng.Intn(3); i++ {
		var r VertexRef
		r.Round = Round(rng.Intn(int(v.Round) + 1))
		r.Source = NodeID(rng.Intn(200))
		v.WeakEdges = append(v.WeakEdges, r)
	}
	if rng.Intn(2) == 0 {
		nvc := &NoVoteCert{Round: v.Round - 1}
		rng.Read(nvc.Agg.Tag[:])
		nvc.Agg.Bitmap = make([]byte, rng.Intn(20)+1)
		rng.Read(nvc.Agg.Bitmap)
		v.NVC = nvc
	}
	if rng.Intn(3) == 0 {
		tc := &TimeoutCert{Round: v.Round - 1}
		rng.Read(tc.Agg.Tag[:])
		tc.Agg.Bitmap = make([]byte, rng.Intn(20)+1)
		rng.Read(tc.Agg.Bitmap)
		v.TC = tc
	}
	return v
}

func TestVertexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		v := randVertex(rng)
		enc := v.Marshal(nil)
		if len(enc) != v.WireSize() {
			t.Fatalf("WireSize %d != len(Marshal) %d", v.WireSize(), len(enc))
		}
		got, rest, err := UnmarshalVertex(enc)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
		if !got.Equal(v) {
			t.Fatalf("roundtrip mismatch:\n%+v\n%+v", v, got)
		}
		if got.Digest() != v.Digest() {
			t.Fatal("digest changed across roundtrip")
		}
	}
}

func TestVertexUnmarshalRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := randVertex(rng)
	enc := v.Marshal(nil)
	// Truncations must error or stop cleanly, never panic.
	for cut := 0; cut < len(enc); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on truncation at %d: %v", cut, r)
				}
			}()
			UnmarshalVertex(enc[:cut])
		}()
	}
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		b := &Block{
			Round:     Round(rng.Intn(100)),
			Source:    NodeID(rng.Intn(100)),
			CreatedAt: rng.Int63(),
		}
		for j := 0; j < rng.Intn(10); j++ {
			tx := make([]byte, rng.Intn(600))
			rng.Read(tx)
			b.Txs = append(b.Txs, tx)
		}
		enc := b.Marshal(nil)
		if len(enc) != b.WireSize() {
			t.Fatalf("WireSize %d != len(Marshal) %d", b.WireSize(), len(enc))
		}
		got, rest, err := UnmarshalBlock(enc)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if len(rest) != 0 {
			t.Fatal("trailing bytes")
		}
		if got.Digest() != b.Digest() {
			t.Fatal("digest mismatch")
		}
		if got.TxCount() != b.TxCount() || got.PayloadBytes() != b.PayloadBytes() {
			t.Fatal("payload accounting mismatch")
		}
	}
}

func TestSyntheticBlock(t *testing.T) {
	b := &Block{Round: 5, Source: 3, SynthCount: 6000, SynthSize: 512, SynthSeed: 99, CreatedAt: 1234}
	if !b.IsSynthetic() {
		t.Fatal("not synthetic")
	}
	if b.PayloadBytes() != 6000*512 {
		t.Fatalf("payload = %d", b.PayloadBytes())
	}
	if b.TxCount() != 6000 {
		t.Fatalf("txcount = %d", b.TxCount())
	}
	// Wire size models ~3 MB even though nothing is materialized.
	if ws := b.WireSize(); ws < 6000*512 || ws > 6000*512+6000*8+64 {
		t.Fatalf("wire size %d out of modeled range", ws)
	}
	// Digest is deterministic and sensitive to the descriptor.
	d1 := b.Digest()
	b2 := *b
	b2.SynthSeed = 100
	if d1 == b2.Digest() {
		t.Fatal("digest insensitive to seed")
	}
	if d1 != (&Block{Round: 5, Source: 3, SynthCount: 6000, SynthSize: 512, SynthSeed: 99, CreatedAt: 1234}).Digest() {
		t.Fatal("digest not deterministic")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var digest Hash
	rng.Read(digest[:])
	var sig SigBytes
	rng.Read(sig[:])
	agg := AggSig{Bitmap: []byte{0xff, 0x01}}
	rng.Read(agg.Tag[:])

	vert := randVertex(rng)
	blk := &Block{Round: vert.Round, Source: vert.Source, Txs: [][]byte{{1, 2, 3}}}

	msgs := []Message{
		&ValMsg{Vertex: vert, Block: blk, Sig: sig},
		&ValMsg{Vertex: vert, Sig: sig},
		&EchoMsg{Entries: []EchoEntry{{Position{3, 7}, digest}}, Voter: 9, Sig: sig},
		&EchoMsg{Entries: []EchoEntry{{Position{3, 7}, digest}, {Position{1 << 40, 300}, digest}}, Voter: 9, Sig: sig},
		&VtxRspMsg{Vertex: vert, Cert: &EchoCertMsg{Pos: Position{4, 1}, Digest: digest, Agg: agg}},
		&VtxRspMsg{Vertex: vert, Cert: &EchoCertMsg{Pos: Position{4, 1}, Digest: digest, Agg: agg}, Block: blk},
		&BlockReqMsg{Pos: Position{8, 2}, Digest: digest},
		&BlockRspMsg{Block: blk},
		&NoVoteMsg{NV: NoVote{Round: 11, Voter: 4, Sig: sig}},
		&TimeoutMsg{TO: Timeout{Round: 12, Voter: 5, Sig: sig}},
		&TCMsg{TC: TimeoutCert{Round: 13, Agg: agg}},
	}
	for i, m := range msgs {
		enc := Encode(m, nil)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("msg %d decode: %v", i, err)
		}
		if got.Kind() != m.Kind() {
			t.Fatalf("msg %d kind mismatch", i)
		}
		re := Encode(got, nil)
		if !bytes.Equal(enc, re) {
			t.Fatalf("msg %d not canonical: % x vs % x", i, enc, re)
		}
		// WireSize equals encoded body size for real payloads.
		if m.WireSize() != len(enc)-1 {
			t.Fatalf("msg %d WireSize %d != body %d", i, m.WireSize(), len(enc)-1)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := Decode([]byte{0xEE, 1, 2}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(100))
		rng.Read(b)
		if len(b) > 0 {
			b[0] = byte(rng.Intn(25))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic decoding garbage: %v", r)
				}
			}()
			Decode(b)
		}()
	}
}

func TestNormalizeEdgesDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	v := randVertex(rng)
	for len(v.StrongEdges) < 4 {
		var r VertexRef
		r.Round = v.Round - 1
		r.Source = NodeID(rng.Intn(200))
		rng.Read(r.Digest[:])
		v.StrongEdges = append(v.StrongEdges, r)
	}
	v.NormalizeEdges()
	d1 := v.Digest()
	// Shuffle and re-normalize: digest must be unchanged.
	rng.Shuffle(len(v.StrongEdges), func(i, j int) {
		v.StrongEdges[i], v.StrongEdges[j] = v.StrongEdges[j], v.StrongEdges[i]
	})
	v.NormalizeEdges()
	if v.Digest() != d1 {
		t.Fatal("edge order leaked into digest")
	}
}

func TestUvarint(t *testing.T) {
	f := func(v uint64) bool {
		b := PutUvarint(nil, v)
		got, rest, err := Uvarint(b)
		return err == nil && got == v && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAggSigCloneIndependence(t *testing.T) {
	a := AggSig{Bitmap: []byte{1, 2, 3}}
	a.Tag[0] = 9
	c := a.Clone()
	c.Bitmap[0] = 0xFF
	c.Tag[0] = 1
	if a.Bitmap[0] != 1 || a.Tag[0] != 9 {
		t.Fatal("clone aliases the original")
	}
	if a.WireSize() != 32+1+3 {
		t.Fatalf("wire size %d", a.WireSize())
	}
}

func TestVertexRefOrdering(t *testing.T) {
	a := VertexRef{Round: 1, Source: 5}
	b := VertexRef{Round: 2, Source: 0}
	c := VertexRef{Round: 1, Source: 6}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("round ordering broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Fatal("source tie-break broken")
	}
	if a.Less(a) {
		t.Fatal("irreflexivity broken")
	}
	if a.String() == "" || a.Pos() != (Position{Round: 1, Source: 5}) {
		t.Fatal("accessors broken")
	}
}

func TestHashHelpers(t *testing.T) {
	if !ZeroHash.IsZero() {
		t.Fatal("zero hash not zero")
	}
	h := HashBytes([]byte("x"))
	if h.IsZero() || h.String() == "" || len(h.String()) != 8 {
		t.Fatalf("hash helpers: %q", h.String())
	}
	if HashBytes([]byte("x")) != h || HashBytes([]byte("y")) == h {
		t.Fatal("hash not functional")
	}
}

// TestDigestCachedOneHash: DigestCached must hash exactly once per object
// lifetime — the second call must not allocate (Digest marshals into a fresh
// buffer, so zero allocations means zero recomputation).
func TestDigestCachedOneHash(t *testing.T) {
	blk := &Block{Round: 4, Source: 1, Txs: [][]byte{make([]byte, 600)}}
	want := blk.Digest()
	if got := blk.DigestCached(); got != want {
		t.Fatal("DigestCached disagrees with Digest")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = blk.DigestCached() }); allocs != 0 {
		t.Fatalf("cached block digest allocates %.0f/op, want 0", allocs)
	}

	v := &Vertex{Round: 4, Source: 1, BlockDigest: want}
	v.NormalizeEdges()
	wantV := v.Digest()
	if v.DigestCached() != wantV {
		t.Fatal("vertex DigestCached disagrees with Digest")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = v.DigestCached() }); allocs != 0 {
		t.Fatalf("cached vertex digest allocates %.0f/op, want 0", allocs)
	}
}

// BenchmarkDigestCached compares recomputing the digest per call with
// hitting the cache.
func BenchmarkDigestCached(b *testing.B) {
	blk := &Block{Round: 4, Source: 1, Txs: [][]byte{make([]byte, 4096)}}
	b.Run("recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = blk.Digest()
		}
	})
	b.Run("cached", func(b *testing.B) {
		blk.DigestCached()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = blk.DigestCached()
		}
	})
}
