package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// frameStream encodes msgs as length-prefixed frames into one buffer,
// returning the buffer and the per-frame body slices aliasing it.
func frameStream(msgs []Message) ([]byte, [][]byte) {
	var stream []byte
	for _, m := range msgs {
		body := Encode(m, nil)
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(body)))
		stream = append(stream, body...)
	}
	var frames [][]byte
	off := 0
	for range msgs {
		n := int(binary.BigEndian.Uint32(stream[off:]))
		frames = append(frames, stream[off+4:off+4+n:off+4+n])
		off += 4 + n
	}
	return stream, frames
}

// TestDecodedMessagesOwnTheirBytes: a reader reuses its buffer as soon as a
// frame is decoded, so nothing a decoded message holds may point into the
// frame. One frame of every kind that carries bytes is decoded from one
// buffer, the buffer is overwritten, and each message must still re-encode to
// its original frame.
func TestDecodedMessagesOwnTheirBytes(t *testing.T) {
	var sig SigBytes
	for i := range sig {
		sig[i] = byte(i)
	}
	digest := HashBytes([]byte("own"))
	blk := &Block{Round: 3, Source: 1, CreatedAt: 42, Txs: [][]byte{[]byte("alpha"), {}, []byte("gamma-payload")}}
	v := &Vertex{Round: 3, Source: 1, BlockDigest: blk.Digest(),
		StrongEdges: []VertexRef{{Round: 2, Source: 0, Digest: digest}, {Round: 2, Source: 2, Digest: digest}},
		Reconfig:    []ReconfigTx{{Action: ReconfigJoin, Node: 9, Addr: "10.0.0.9:7000", PubKey: digest, Sig: sig}}}
	v.NormalizeEdges()
	agg := AggSig{Tag: digest, Bitmap: []byte{0x0b}}
	msgs := []Message{
		&ValMsg{Vertex: v, Block: blk, Sig: sig},
		&VtxRspMsg{Vertex: v, Cert: &EchoCertMsg{Pos: Position{3, 1}, Digest: digest, Agg: agg}, Block: blk},
		&EchoMsg{Entries: []EchoEntry{{Position{3, 1}, digest}, {Position{3, 2}, digest}}, Voter: 2, Sig: sig},
		&ViewVoteMsg{Vote: ViewVote{Round: 5, Voter: 1, Sig: sig}},
		&TCMsg{TC: ViewCert{Round: 5, Agg: agg}},
		&ViewVoteMsg{NoVote: true, Vote: ViewVote{Round: 5, Voter: 1, Sig: sig}},
		&VtxReqMsg{Pos: Position{3, 1}, Have: 2},
		&SnapRspMsg{Data: []byte("snapshot-bytes")},
	}
	stream, frames := frameStream(msgs)
	var dec Decoder
	got := make([]Message, len(msgs))
	for i, f := range frames {
		m, err := dec.Decode(f)
		if err != nil {
			t.Fatalf("%T: %v", msgs[i], err)
		}
		got[i] = m
	}
	for i := range stream {
		stream[i] = 0xA5
	}
	for i, m := range got {
		if want := Encode(msgs[i], nil); !bytes.Equal(Encode(m, nil), want) {
			t.Errorf("%T changed when the frame it was decoded from was overwritten", m)
		}
	}
}

// TestDecoderMatchesDecode: the arena decoder must agree with the package
// Decode for every message kind.
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
		&ViewVoteMsg{NoVote: true, Vote: ViewVote{Round: 5, Voter: 1, Sig: sig}},
		&ViewVoteMsg{Vote: ViewVote{Round: 5, Voter: 1, Sig: sig}},
		&TCMsg{TC: ViewCert{Round: 5, Agg: AggSig{Bitmap: []byte{7}}}},
		&VtxReqMsg{Pos: Position{3, 1}},
		&VtxRspMsg{Vertex: v, Block: &Block{Round: 3, Source: 1, Txs: [][]byte{{8}}}},
		&VtxRspMsg{Vertex: v, Cert: &EchoCertMsg{Pos: Position{3, 1}, Digest: digest, Agg: AggSig{Bitmap: []byte{7}}},
			Block: &Block{Round: 3, Source: 1, Txs: [][]byte{{8}}}},
	}
	_, frames := frameStream(msgs)
	var dec Decoder
	for i, m := range msgs {
		plain, err := Decode(frames[i])
		if err != nil {
			t.Fatalf("Decode(%T): %v", m, err)
		}
		got, err := dec.Decode(frames[i])
		if err != nil {
			t.Fatalf("Decoder.Decode(%T): %v", m, err)
		}
		// Re-encoding both must agree byte for byte.
		if !bytes.Equal(Encode(plain, nil), Encode(got, nil)) {
			t.Fatalf("%T: Decoder.Decode disagrees with Decode", m)
		}
	}
}

// TestRxDecodeAllocs: the echo arena makes decoding vote/echo-class
// messages allocate at most 20% of what a plain Decode per frame allocates
// (≥ 80% reduction).
func TestRxDecodeAllocs(t *testing.T) {
	const batch = 64
	vote := &EchoMsg{Entries: []EchoEntry{{Pos: Position{Round: 12, Source: 3}}}, Voter: 7}
	body := Encode(vote, nil)
	var stream []byte
	for i := 0; i < batch; i++ {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(body)))
		stream = append(stream, body...)
	}
	decodeAll := func(decode func([]byte) (Message, error)) {
		off := 0
		for i := 0; i < batch; i++ {
			n := int(binary.BigEndian.Uint32(stream[off:]))
			if _, err := decode(stream[off+4 : off+4+n]); err != nil {
				t.Fatal(err)
			}
			off += 4 + n
		}
	}
	plain := testing.AllocsPerRun(200, func() { decodeAll(Decode) })
	var dec Decoder
	arena := testing.AllocsPerRun(200, func() { decodeAll(dec.Decode) })
	t.Logf("allocs per %d votes: plain %.0f, arena %.0f (%.1f%% reduction)",
		batch, plain, arena, 100*(1-arena/plain))
	if arena > plain*0.2 {
		t.Fatalf("arena decode allocates %.0f/op vs plain %.0f/op: less than 80%% reduction",
			arena, plain)
	}
}

// TestDecoderValArena: a VAL the decoder rejects after filling most of its
// slot — certificates, reconfiguration, lacked blocks and edges decoded, the
// signature one byte short — leaves nothing behind: the next VAL takes the
// same slot and decodes exactly as the package Decode does. And consecutive
// VALs' edge lists, carved from one block, share no writable capacity.
func TestDecoderValArena(t *testing.T) {
	var sig SigBytes
	digest := HashBytes([]byte("arena"))
	agg := AggSig{Tag: digest, Bitmap: []byte{0x0f}}
	full := &Vertex{Round: 7, Source: 2, BlockDigest: digest, Epoch: 3, CreatedAt: 99,
		StrongEdges: []VertexRef{{Round: 6, Source: 0}, {Round: 6, Source: 1}, {Round: 6, Source: 3}},
		WeakEdges:   []VertexRef{{Round: 4, Source: 1}},
		NVC:         &ViewCert{Round: 6, Agg: agg},
		TC:          &ViewCert{Round: 6, Agg: agg},
		Lacks:       []uint32{1, 3},
		Reconfig:    []ReconfigTx{{Action: ReconfigJoin, Node: 9, Addr: "10.0.0.9:7000", PubKey: digest, Sig: sig}}}
	plain := func(r Round) *Vertex {
		return &Vertex{Round: r, Source: 1, BlockDigest: digest,
			StrongEdges: []VertexRef{{Round: r - 1, Source: 0}, {Round: r - 1, Source: 2}},
			WeakEdges:   []VertexRef{{Round: r - 3, Source: 3}}}
	}
	bad := Encode(&ValMsg{Vertex: full, Block: &Block{Round: 7, Source: 2, Txs: [][]byte{{1}}}, Sig: sig}, nil)
	bad = bad[:len(bad)-1]
	if _, err := Decode(bad); err == nil {
		t.Fatal("the truncated frame decodes")
	}

	var dec Decoder
	decode := func(frame []byte) *ValMsg {
		t.Helper()
		m, err := dec.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		return m.(*ValMsg)
	}
	first := decode(Encode(&ValMsg{Vertex: plain(5), Sig: sig}, nil))
	slot := &dec.vals.block[dec.vals.next].m
	if _, err := dec.Decode(bad); err == nil {
		t.Fatal("the decoder accepts the truncated frame")
	}
	want := plain(6)
	frame := Encode(&ValMsg{Vertex: want, Sig: sig}, nil)
	got := decode(frame)
	if got != slot {
		t.Fatal("the rejected frame's slot was not handed out again")
	}
	v := got.Vertex
	if v.NVC != nil || v.TC != nil || v.Lacks != nil || v.Reconfig != nil || got.Block != nil || v.Epoch != 0 {
		t.Fatalf("the rejected frame left fields behind: %+v", v)
	}
	if v.DigestCached() != want.Digest() || !bytes.Equal(Encode(got, nil), frame) {
		t.Fatal("the VAL after a rejected one decodes differently")
	}

	// Edge lists: capped, so growing one moves it rather than writing into
	// the next vertex's edges.
	for _, m := range []*ValMsg{first, got} {
		if s, w := m.Vertex.StrongEdges, m.Vertex.WeakEdges; cap(s) != len(s) || cap(w) != len(w) {
			t.Fatalf("edge lists have spare capacity: strong %d/%d, weak %d/%d", len(s), cap(s), len(w), cap(w))
		}
	}
	next := decode(Encode(&ValMsg{Vertex: plain(8), Sig: sig}, nil))
	before := append([]VertexRef(nil), next.Vertex.StrongEdges...)
	before = append(before, next.Vertex.WeakEdges...)
	_ = append(got.Vertex.StrongEdges, VertexRef{Round: 99, Source: 9})
	_ = append(got.Vertex.WeakEdges, VertexRef{Round: 99, Source: 9})
	after := append(append([]VertexRef(nil), next.Vertex.StrongEdges...), next.Vertex.WeakEdges...)
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatal("growing one VAL's edges changed the next VAL's")
	}
	if !got.Vertex.Equal(want) || !first.Vertex.Equal(plain(5)) {
		t.Fatal("decoded vertices changed")
	}
}

// retiredFrames are frames of kinds 5 and 6, a block-only pull and its reply,
// as they were encoded before a block came back in its vertex's pull reply.
func retiredFrames() [][]byte {
	digest := HashBytes([]byte("retired"))
	req := append([]byte{5, 3, 1}, digest[:]...)
	rsp := (&Block{Round: 3, Source: 1, Txs: [][]byte{{1, 2}}}).Marshal([]byte{6})
	return [][]byte{req, rsp}
}

// TestRetiredKindsRefused: no decoder accepts a frame of a retired kind, so a
// peer that still sends one gets nothing handled.
func TestRetiredKindsRefused(t *testing.T) {
	var dec Decoder
	for _, frame := range retiredFrames() {
		if m, err := Decode(frame); err == nil {
			t.Errorf("Decode accepted a frame of kind %d as %T", frame[0], m)
		}
		if m, err := dec.Decode(frame); err == nil {
			t.Errorf("Decoder.Decode accepted a frame of kind %d as %T", frame[0], m)
		}
	}
}

// nonCanonicalFrames are frames that differ from the one encoding of the
// message they would stand for: a byte past the end, a varint padded with a
// continuation byte, a flag byte other than 0 or 1, a bitmap with a trailing
// zero byte, an id wider than its field.
func nonCanonicalFrames() []struct {
	name  string
	frame []byte
} {
	sig := goldenSig()
	v := &Vertex{Round: 5, Source: 1, CreatedAt: 12345, StrongEdges: []VertexRef{{Round: 4, Source: 0}}}
	venc := v.Marshal(nil)
	val := Encode(&ValMsg{Vertex: v, Sig: sig}, nil)
	req := Encode(&VtxReqMsg{Pos: Position{3, 1}, Have: 2}, nil)
	vote := Encode(&ViewVoteMsg{Vote: ViewVote{Round: 5, Voter: 1, Sig: sig}}, nil)
	echo := Encode(&EchoMsg{Entries: []EchoEntry{{Position{5, 1}, v.Digest()}}, Voter: 1, Sig: sig}, nil)
	trailing := func(m Message) []byte { return append(Encode(m, nil), 0) }
	with := func(frame []byte, at int, b byte) []byte {
		frame = append([]byte(nil), frame...)
		frame[at] = b
		return frame
	}
	splice := func(frame []byte, at, cut int, b ...byte) []byte {
		return append(append(append([]byte(nil), frame[:at]...), b...), frame[at+cut:]...)
	}
	// A VAL is the kind byte, the vertex, the block flag and the signature.
	// The vertex's TC flag sits before its epoch, its reconfig count and its
	// two-byte createdAt; its strong-edge bitmap (width 1, bits 0x01) after
	// its round, its source and its block digest.
	tcFlag, bitmap := 1+len(venc)-5, 1+1+1+32
	return []struct {
		name  string
		frame []byte
	}{
		{"tc with a trailing byte", trailing(&TCMsg{TC: ViewCert{Round: 5, Agg: AggSig{Bitmap: []byte{7}}}})},
		{"vtxreq with a trailing byte", append(req, 0)},
		{"vtxreq with a padded round", splice(req, 1, 1, 0x83, 0x00)},
		{"vtxrsp with a trailing byte", trailing(&VtxRspMsg{Vertex: v})},
		{"vtxrsp with a block and a trailing byte", trailing(&VtxRspMsg{Vertex: v, Block: &Block{Round: 5, Source: 1, Txs: [][]byte{{1, 2}}}})},
		{"val with block flag 2", with(val, 1+len(venc), 2)},
		{"vertex with tc flag 2", with(val, tcFlag, 2)},
		{"strong-edge bitmap padded with a zero byte", splice(val, bitmap, 2, 2, 0x01, 0x00)},
		{"view vote with a padded round", splice(vote, 1, 1, 0x85, 0x00)},
		{"echo from a voter wider than 16 bits", splice(echo, len(echo)-65, 1, 0xf0, 0xa2, 0x04)},
		{"vtxreq for a source wider than 16 bits", splice(req, 2, 1, 0x81, 0x80, 0x04)},
	}
}

// TestDecodeRejectsNonCanonical: a message has one encoding, so a frame that
// decodes must be the one its message encodes to. Each of these decoded, and
// encoded back to different bytes, before every decoder read through one
// Reader.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	var dec Decoder
	for _, c := range nonCanonicalFrames() {
		if m, err := Decode(c.frame); err == nil {
			t.Errorf("%s: decoded as %T, which encodes to % x", c.name, m, Encode(m, nil))
		}
		if _, err := dec.Decode(c.frame); err == nil {
			t.Errorf("%s: the connection decoder accepted it", c.name)
		}
	}
}
