package types

import (
	"bytes"
	"encoding/binary"
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
		&BlockRspMsg{Block: blk},
		&VtxRspMsg{Vertex: v, Cert: &EchoCertMsg{Pos: Position{3, 1}, Digest: digest, Agg: agg}, Block: blk},
		&EchoMsg{Entries: []EchoEntry{{Position{3, 1}, digest}, {Position{3, 2}, digest}}, Voter: 2, Sig: sig},
		&TimeoutMsg{TO: Timeout{Round: 5, Voter: 1, Sig: sig}},
		&TCMsg{TC: TimeoutCert{Round: 5, Agg: agg}},
		&NoVoteMsg{NV: NoVote{Round: 5, Voter: 1, Sig: sig}},
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

// TestRxDecodeZeroCopyAllocs: the echo arena makes decoding vote/echo-class
// messages allocate at most 20% of what a plain Decode per frame allocates
// (≥ 80% reduction).
func TestRxDecodeZeroCopyAllocs(t *testing.T) {
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
