package types

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenBlock is a fixed 200-transaction real block; transaction i is
// (i*7)%97 bytes long (so some are empty) and every byte is a function of
// its position.
func goldenBlock() *Block {
	b := &Block{Round: 7, Source: 2, CreatedAt: 12345}
	for i := 0; i < 200; i++ {
		tx := make([]byte, (i*7)%97)
		for j := range tx {
			tx[j] = byte(i*31 + j)
		}
		b.Txs = append(b.Txs, tx)
	}
	return b
}

// Digests of goldenBlock, of a block with no transactions and of a synthetic
// descriptor, taken from the commit before Block.Digest streamed (PR 15).
const (
	goldenBlockDigest = "b5bdfa0568003e58f997960003a17eb99658c769ec538247ab66050d5e806cb8"
	goldenEmptyDigest = "7911f8f5921c37681c27636e5d0866e2f7e7debc87507b89de918c2008c94fb8"
	goldenSynthDigest = "14fab9d793a42ab090d2e6d37b41ce93623dda2e420e0c8e03779b22d8b174be"
)

func TestGoldenBlockDigest(t *testing.T) {
	for _, c := range []struct {
		name string
		blk  *Block
		want string
	}{
		{"real", goldenBlock(), goldenBlockDigest},
		{"empty", &Block{Round: 3, Source: 1}, goldenEmptyDigest},
		{"synthetic", &Block{Round: 3, Source: 1, SynthCount: 5, SynthSize: 512, SynthSeed: 9}, goldenSynthDigest},
	} {
		d := c.blk.Digest()
		if got := fmt.Sprintf("%x", d[:]); got != c.want {
			t.Errorf("%s block digest = %s, want %s", c.name, got, c.want)
		}
	}
}

// Frames of the view change, taken from the commit that still had a type per
// vote (Timeout, NoVote) and per certificate (TimeoutCert, NoVoteCert): a
// TIMEOUT (kind 8), a NO-VOTE (kind 7) and a TC (kind 9) frame, and a vertex
// that carries both a TC and an NVC. Round 300 and voter 130 take two
// uvarint bytes each.
const (
	goldenTimeoutFrame = "08ac0282010001020304050607" + "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" +
		"202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
	goldenNoVoteFrame = "07ac0282010001020304050607" + "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" +
		"202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
	goldenTCFrame    = "09ac022bcb43cbc8f6b7ef66331532881143fcbae60a879db3a8fb853f645bb24c2b3c020b01"
	goldenCertVertex = "ad0202dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d010b01030201" +
		"ac022bcb43cbc8f6b7ef66331532881143fcbae60a879db3a8fb853f645bb24c2b3c020b01" +
		"01ac022bcb43cbc8f6b7ef66331532881143fcbae60a879db3a8fb853f645bb24c2b3c020b01" + "0100b960"
)

// TestGoldenViewChangeWire pins the bytes of the view change: both votes
// share one body under their own kind byte, and a certificate encodes the
// same way in a TC frame and inside a vertex. Each frame decodes back to what
// encoded it.
func TestGoldenViewChangeWire(t *testing.T) {
	sig := goldenSig()
	cert := ViewCert{Round: 300, Agg: AggSig{Tag: HashBytes([]byte("view")), Bitmap: []byte{0x0b, 0x01}}}
	vote := ViewVote{Round: 300, Voter: 130, Sig: sig}
	for _, c := range []struct {
		name string
		m    Message
		want string
	}{
		{"timeout", &ViewVoteMsg{Vote: vote}, goldenTimeoutFrame},
		{"no-vote", &ViewVoteMsg{NoVote: true, Vote: vote}, goldenNoVoteFrame},
		{"tc", &TCMsg{TC: cert}, goldenTCFrame},
	} {
		enc := Encode(c.m, nil)
		if got := hex.EncodeToString(enc); got != c.want {
			t.Errorf("%s frame changed:\n got %s\nwant %s", c.name, got, c.want)
		}
		m, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m.Kind() != c.m.Kind() || !bytes.Equal(Encode(m, nil), enc) {
			t.Errorf("%s frame decodes to %T of kind %d", c.name, m, m.Kind())
		}
	}
	nvc, tc := cert, cert
	v := &Vertex{Round: 301, Source: 2, BlockDigest: HashBytes([]byte("golden")), Epoch: 1, CreatedAt: 12345,
		StrongEdges: []VertexRef{{Round: 300, Source: 0}, {Round: 300, Source: 1}, {Round: 300, Source: 3}},
		WeakEdges:   []VertexRef{{Round: 298, Source: 2}},
		NVC:         &nvc, TC: &tc}
	enc := v.Marshal(nil)
	if got := hex.EncodeToString(enc); got != goldenCertVertex {
		t.Errorf("vertex with a TC and an NVC changed:\n got %s\nwant %s", got, goldenCertVertex)
	}
	got, err := UnmarshalVertex(enc)
	if err != nil || !got.Equal(v) || got.TC == nil || got.NVC == nil {
		t.Fatalf("vertex with a TC and an NVC decodes to %+v (%v)", got, err)
	}
}

// goldenSig is the signature every golden frame carries: bytes 0..63.
func goldenSig() (sig SigBytes) {
	for i := range sig {
		sig[i] = byte(i)
	}
	return sig
}

// goldenFrameMsgs are the messages behind the golden frames: a frame of every
// live kind and of every optional part each kind carries.
func goldenFrameMsgs() []struct {
	name string
	m    Message
	want string
} {
	sig := goldenSig()
	digest := HashBytes([]byte("golden"))
	blk := &Block{Round: 301, Source: 2, CreatedAt: 12345, Txs: [][]byte{[]byte("alpha"), {}, []byte("gamma")}}
	vertex := func() *Vertex {
		return &Vertex{Round: 301, Source: 2, BlockDigest: blk.Digest(), Epoch: 1, CreatedAt: 12345,
			StrongEdges: []VertexRef{{Round: 300, Source: 0}, {Round: 300, Source: 1}, {Round: 300, Source: 3}},
			WeakEdges:   []VertexRef{{Round: 298, Source: 2}}}
	}
	lacks := vertex()
	lacks.Lacks = []uint32{1, 3}
	reconfig := vertex()
	reconfig.Reconfig = []ReconfigTx{
		{Action: ReconfigJoin, Node: 9, Addr: "10.0.0.9:7000", PubKey: digest, Sig: sig},
		{Action: ReconfigLeave, Node: 3, Sig: sig},
	}
	cert := &EchoCertMsg{Pos: Position{301, 2}, Digest: vertex().Digest(), Agg: AggSig{Tag: digest, Bitmap: []byte{0x0b}}}
	entry := func(src NodeID) EchoEntry { return EchoEntry{Position{301, src}, digest} }
	return []struct {
		name string
		m    Message
		want string
	}{
		{"val", &ValMsg{Vertex: vertex(), Sig: sig}, goldenVal},
		{"val with a block", &ValMsg{Vertex: vertex(), Block: blk, Sig: sig}, goldenValBlock},
		{"val with lacks", &ValMsg{Vertex: lacks, Sig: sig}, goldenValLacks},
		{"val with a join and a leave", &ValMsg{Vertex: reconfig, Sig: sig}, goldenValReconfig},
		{"echo of 1", &EchoMsg{Entries: []EchoEntry{entry(2)}, Voter: 1, Sig: sig}, goldenEcho1},
		{"echo of 3", &EchoMsg{Entries: []EchoEntry{entry(0), entry(1), entry(3)}, Voter: 2, Sig: sig}, goldenEcho3},
		{"echo from a three-byte voter", &EchoMsg{Entries: []EchoEntry{entry(2)}, Voter: 40000, Sig: sig}, goldenEchoWideVoter},
		{"vtxreq", &VtxReqMsg{Pos: Position{301, 2}, Have: 290}, goldenVtxReq},
		{"vtxrsp with a certificate", &VtxRspMsg{Vertex: vertex(), Cert: cert}, goldenVtxRspCert},
		{"vtxrsp with a block", &VtxRspMsg{Vertex: vertex(), Block: blk}, goldenVtxRspBlock},
		{"vtxrsp with both", &VtxRspMsg{Vertex: vertex(), Cert: cert, Block: blk}, goldenVtxRspBoth},
		{"snapreq", &SnapReqMsg{}, goldenSnapReq},
		{"snaprsp", &SnapRspMsg{Data: []byte("snapshot-bytes")}, goldenSnapRsp},
	}
}

// The golden frames, recorded before the decoders moved onto one reader.
// goldenSigHex is the signature every frame carries.
const (
	goldenSigHex        = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
	goldenVal           = "01ad02020e8db7c996344315f5e798d701cfcc443880f7267196901d1a42a1ef999a0f75010b01030200000100b96000" + goldenSigHex
	goldenValBlock      = "01ad02020e8db7c996344315f5e798d701cfcc443880f7267196901d1a42a1ef999a0f75010b01030200000100b96001ad020200000039300000000000000305616c706861000567616d6d61" + goldenSigHex
	goldenValLacks      = "01ad02020e8db7c996344315f5e798d701cfcc443880f7267196901d1a42a1ef999a0f75010b01030202020103000100b96000" + goldenSigHex
	goldenValReconfig   = "01ad02020e8db7c996344315f5e798d701cfcc443880f7267196901d1a42a1ef999a0f75010b0103020000010201090d31302e302e302e393a37303030dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d" + goldenSigHex + "0203000000000000000000000000000000000000000000000000000000000000000000" + goldenSigHex + "b96000" + goldenSigHex
	goldenEcho1         = "02ad0202dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d01" + goldenSigHex
	goldenEcho3         = "02ad0200dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5dad0201dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5dad0203dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d02" + goldenSigHex
	goldenEchoWideVoter = "02ad0202dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5dc0b802" + goldenSigHex
	goldenVtxReq        = "0aad0202a202"
	goldenVtxRspCert    = "0bad02020e8db7c996344315f5e798d701cfcc443880f7267196901d1a42a1ef999a0f75010b01030200000100b96002ad0202c0d43adaca138fc4b90e4e0948a6ad51fbc0e32a9d95b5c5dfb266686e916a68dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d010b"
	goldenVtxRspBlock   = "0bad02020e8db7c996344315f5e798d701cfcc443880f7267196901d1a42a1ef999a0f75010b01030200000100b96001ad020200000039300000000000000305616c706861000567616d6d61"
	goldenVtxRspBoth    = "0bad02020e8db7c996344315f5e798d701cfcc443880f7267196901d1a42a1ef999a0f75010b01030200000100b96003ad0202c0d43adaca138fc4b90e4e0948a6ad51fbc0e32a9d95b5c5dfb266686e916a68dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d010bad020200000039300000000000000305616c706861000567616d6d61"
	goldenSnapReq       = "0c"
	goldenSnapRsp       = "0d0e736e617073686f742d6279746573"
)

// TestGoldenFrames pins the bytes of every live message kind, and checks that
// each frame decodes, through the package Decode and a connection's Decoder
// alike, to a message that encodes back to it.
func TestGoldenFrames(t *testing.T) {
	var dec Decoder
	for _, c := range goldenFrameMsgs() {
		enc := Encode(c.m, nil)
		if got := hex.EncodeToString(enc); got != c.want {
			t.Errorf("%s frame changed:\n got %s\nwant %s", c.name, got, c.want)
		}
		for _, decode := range []func([]byte) (Message, error){Decode, dec.Decode} {
			m, err := decode(enc)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !bytes.Equal(Encode(m, nil), enc) {
				t.Errorf("%s frame decodes to a %T that encodes differently", c.name, m)
			}
		}
	}
}
