package types

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestRecvBufRefcount(t *testing.T) {
	pc := StartPoolCheck()
	rb := NewRecvBuf(1024)
	if rb.Refs() != 1 {
		t.Fatalf("fresh RecvBuf refs = %d, want 1", rb.Refs())
	}
	rb.Retain()
	rb.Retain()
	if rb.Refs() != 3 {
		t.Fatalf("refs = %d, want 3", rb.Refs())
	}
	rb.Release()
	rb.Release()
	if pc.Outstanding() != 1 {
		t.Fatalf("buffer returned early: outstanding = %d", pc.Outstanding())
	}
	rb.Release() // last ref returns the buffer
	if pc.Outstanding() != 0 {
		t.Fatalf("buffer leaked: outstanding = %d", pc.Outstanding())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	rb.Release()
}

func TestBorrowedReleaseIdempotent(t *testing.T) {
	pc := StartPoolCheck()
	rb := NewRecvBuf(64)
	var bo Borrowed
	if bo.BorrowsFrame() {
		t.Fatal("zero Borrowed claims a frame")
	}
	bo.attachFrame(rb)
	if !bo.BorrowsFrame() {
		t.Fatal("attachFrame did not mark the borrow")
	}
	rb.Release() // reader's ref; the borrow keeps the buffer alive
	if pc.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1 (borrow alive)", pc.Outstanding())
	}
	bo.ReleaseFrame()
	bo.ReleaseFrame() // idempotent
	if bo.BorrowsFrame() {
		t.Fatal("ReleaseFrame did not clear the borrow")
	}
	pc.AssertBalanced(t)
}

// frameStream encodes msgs as length-prefixed frames into one RecvBuf,
// returning the buffer and the per-frame body slices.
func frameStream(msgs []Message) (*RecvBuf, [][]byte) {
	var stream []byte
	for _, m := range msgs {
		body := Encode(m, nil)
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(body)))
		stream = append(stream, body...)
	}
	rb := NewRecvBuf(len(stream))
	copy(rb.Bytes(), stream)
	var frames [][]byte
	off := 0
	for range msgs {
		n := int(binary.BigEndian.Uint32(rb.Bytes()[off:]))
		frames = append(frames, rb.Bytes()[off+4:off+4+n])
		off += 4 + n
	}
	return rb, frames
}

// TestDecoderAliasContract: decoded payload-bearing messages must borrow from
// the frame (retaining it), equal the copying decode, and detach into
// self-owned memory on demand.
func TestDecoderAliasContract(t *testing.T) {
	pc := StartPoolCheck()
	blk := &Block{Round: 7, Source: 2, Txs: [][]byte{{1, 2, 3}, {4, 5}}, CreatedAt: 99}
	val := &ValMsg{Vertex: &Vertex{Round: 7, Source: 2, BlockDigest: blk.Digest()}, Block: blk}
	rsp := &BlockRspMsg{Block: &Block{Round: 3, Source: 1, Txs: [][]byte{[]byte("payload-bytes")}}}
	rb, frames := frameStream([]Message{val, rsp})

	var dec Decoder
	m0, err := dec.DecodeFrom(rb, frames[0])
	if err != nil {
		t.Fatal(err)
	}
	gotVal := m0.(*ValMsg)
	if !gotVal.BorrowsFrame() || !gotVal.Block.Borrowed() {
		t.Fatal("decoded ValMsg with block does not borrow")
	}
	if rb.Refs() != 2 {
		t.Fatalf("refs = %d, want 2 after one borrow", rb.Refs())
	}
	// Borrowed slices must alias the receive buffer, not copies: a write
	// through the alias must be visible in the frame bytes.
	orig := gotVal.Block.Txs[0][0]
	gotVal.Block.Txs[0][0] ^= 0xFF
	if !bytes.Contains(frames[0], gotVal.Block.Txs[0]) {
		t.Fatal("decoded Txs do not alias the frame")
	}
	gotVal.Block.Txs[0][0] = orig
	gotVal.Block.Detach()
	if gotVal.Block.Borrowed() {
		t.Fatal("Detach left block marked borrowed")
	}
	if gotVal.Block.Txs[0][0] != orig {
		t.Fatal("Detach changed content")
	}
	if gotVal.Block.Digest() != blk.Digest() {
		t.Fatal("Detach changed the digest")
	}

	m1, err := dec.DecodeFrom(rb, frames[1])
	if err != nil {
		t.Fatal(err)
	}
	gotRsp := m1.(*BlockRspMsg)
	if !gotRsp.BorrowsFrame() {
		t.Fatal("decoded BlockRspMsg with a block does not borrow")
	}
	if got := gotRsp.Block.Txs[0]; !bytes.Equal(got, rsp.Block.Txs[0]) {
		t.Fatalf("aliased tx = %q, want %q", got, rsp.Block.Txs[0])
	}
	gotRsp.Block.Detach()
	if !bytes.Equal(gotRsp.Block.Txs[0], rsp.Block.Txs[0]) {
		t.Fatal("Detach changed content")
	}

	// Release: the mailbox's job, then the reader's.
	ReleaseMsg(m0)
	ReleaseMsg(m1)
	rb.Release()
	pc.AssertBalanced(t)

	// Detached memory survives the buffer's return to the pool.
	if gotVal.Block.Txs[1][1] != 5 || !bytes.Equal(gotRsp.Block.Txs[0], []byte("payload-bytes")) {
		t.Fatal("detached bytes corrupted after buffer release")
	}
}

// TestDecoderMatchesDecode: the borrowing DecodeFrom must agree with the
// copying Decode for every message kind.
func TestDecoderMatchesDecode(t *testing.T) {
	var sig SigBytes
	digest := HashBytes([]byte("seed"))
	v := &Vertex{Round: 3, Source: 1, BlockDigest: digest,
		StrongEdges: []VertexRef{{Round: 2, Source: 0, Digest: digest}}}
	msgs := []Message{
		&ValMsg{Vertex: v, Sig: sig},
		&ValMsg{Vertex: v, Block: &Block{Round: 3, Source: 1, Txs: [][]byte{{1, 2}}}, Sig: sig},
		&EchoMsg{Entries: []EchoEntry{{Position{3, 1}, digest}}, Voter: 2, Sig: sig},
		&EchoMsg{Entries: []EchoEntry{{Position{3, 1}, digest}, {Position{3, 2}, digest}, {Position{4, 0}, digest}}, Voter: 300, Sig: sig},
		&BlockReqMsg{Pos: Position{3, 1}, Digest: digest},
		&BlockRspMsg{Block: &Block{Round: 3, Source: 1, Txs: [][]byte{{9, 9}}}},
		&NoVoteMsg{NV: NoVote{Round: 5, Voter: 1, Sig: sig}},
		&TimeoutMsg{TO: Timeout{Round: 5, Voter: 1, Sig: sig}},
		&TCMsg{TC: TimeoutCert{Round: 5, Agg: AggSig{Bitmap: []byte{7}}}},
		&VtxReqMsg{Pos: Position{3, 1}},
		&VtxRspMsg{Vertex: v, Block: &Block{Round: 3, Source: 1, Txs: [][]byte{{8}}}},
		&VtxRspMsg{Vertex: v, Cert: &EchoCertMsg{Pos: Position{3, 1}, Digest: digest, Agg: AggSig{Bitmap: []byte{7}}},
			Block: &Block{Round: 3, Source: 1, Txs: [][]byte{{8}}}},
	}
	pc := StartPoolCheck()
	rb, frames := frameStream(msgs)
	var dec Decoder
	for i, m := range msgs {
		plain, err := Decode(frames[i])
		if err != nil {
			t.Fatalf("Decode(%T): %v", m, err)
		}
		got, err := dec.DecodeFrom(rb, frames[i])
		if err != nil {
			t.Fatalf("DecodeFrom(%T): %v", m, err)
		}
		// Re-encoding both must agree byte for byte.
		if !bytes.Equal(Encode(plain, nil), Encode(got, nil)) {
			t.Fatalf("%T: DecodeFrom disagrees with Decode", m)
		}
		ReleaseMsg(got)
	}
	rb.Release()
	pc.AssertBalanced(t)
}

// TestRxDecodeZeroCopyAllocs pins the tentpole acceptance criterion: the
// zero-copy decode of vote/echo-class messages must allocate at most 20% of
// what the copying decode allocates (≥ 80% reduction).
func TestRxDecodeZeroCopyAllocs(t *testing.T) {
	const batch = 64
	vote := &EchoMsg{Entries: []EchoEntry{{Pos: Position{Round: 12, Source: 3}}}, Voter: 7}
	body := Encode(vote, nil)
	var stream []byte
	for i := 0; i < batch; i++ {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(body)))
		stream = append(stream, body...)
	}

	copying := testing.AllocsPerRun(200, func() {
		off := 0
		for i := 0; i < batch; i++ {
			n := int(binary.BigEndian.Uint32(stream[off:]))
			frame := make([]byte, n)
			copy(frame, stream[off+4:off+4+n])
			if _, err := Decode(frame); err != nil {
				t.Fatal(err)
			}
			off += 4 + n
		}
	})
	var dec Decoder
	zerocopy := testing.AllocsPerRun(200, func() {
		rb := NewRecvBuf(len(stream))
		chunk := rb.Bytes()[:copy(rb.Bytes(), stream)]
		off := 0
		for i := 0; i < batch; i++ {
			n := int(binary.BigEndian.Uint32(chunk[off:]))
			m, err := dec.DecodeFrom(rb, chunk[off+4:off+4+n])
			if err != nil {
				t.Fatal(err)
			}
			ReleaseMsg(m)
			off += 4 + n
		}
		rb.Release()
	})
	t.Logf("allocs per %d votes: copying %.0f, zerocopy %.0f (%.1f%% reduction)",
		batch, copying, zerocopy, 100*(1-zerocopy/copying))
	if zerocopy > copying*0.2 {
		t.Fatalf("zero-copy decode allocates %.0f/op vs copying %.0f/op: less than 80%% reduction",
			zerocopy, copying)
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
	blk.Detach() // no-op for owned blocks; must keep the cache coherent
	if blk.DigestCached() != want {
		t.Fatal("Detach invalidated the digest cache")
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

// BenchmarkDigestCached proves the one-hash-per-lifetime claim in the
// satellite task: recomputing hashes per call vs hitting the cache.
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
