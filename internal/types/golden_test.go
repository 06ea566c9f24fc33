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
	var sig SigBytes
	for i := range sig {
		sig[i] = byte(i)
	}
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
	got, rest, err := UnmarshalVertex(enc)
	if err != nil || len(rest) != 0 || !got.Equal(v) || got.TC == nil || got.NVC == nil {
		t.Fatalf("vertex with a TC and an NVC decodes to %+v (%v, %d bytes left)", got, err, len(rest))
	}
}
