package types

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// Vertex.Lacks rides behind a bit of the byte that used to say only whether a
// no-vote certificate follows. These tests pin that a vertex without the list
// is, byte for byte, the vertex the previous format produced; that the list
// round-trips and is covered by the digest; and that the decoder bounds it by
// the edges it has just decoded.

func lacksVertex() *Vertex {
	return &Vertex{Round: 9, Source: 11, BlockDigest: HashBytes([]byte("golden")),
		StrongEdges: []VertexRef{{Round: 8, Source: 0}, {Round: 8, Source: 7}, {Round: 8, Source: 13}},
		WeakEdges:   []VertexRef{{Round: 5, Source: 2}, {Round: 7, Source: 40}},
		Epoch:       2, CreatedAt: 123456789}
}

// TestVertexEncodingWithoutLacksIsUnchanged compares against encodings taken
// at the commit before the list existed.
func TestVertexEncodingWithoutLacksIsUnchanged(t *testing.T) {
	withCerts := lacksVertex()
	withCerts.WeakEdges, withCerts.Epoch, withCerts.CreatedAt = nil, 0, 1
	withCerts.NVC = &NoVoteCert{Round: 8, Agg: AggSig{Bitmap: []byte{0x0b}}}
	withCerts.TC = &TimeoutCert{Round: 8, Agg: AggSig{Bitmap: []byte{0x55}}}
	for _, c := range []struct {
		v    *Vertex
		want string
	}{
		{lacksVertex(), "090bdd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d028120020402022800000200959aef3a"},
		{withCerts, "090bdd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d0281200001080000000000000000000000000000000000000000000000000000000000000000010b010800000000000000000000000000000000000000000000000000000000000000000155000001"},
	} {
		if got := hex.EncodeToString(c.v.Marshal(nil)); got != c.want {
			t.Errorf("encoding changed:\n got %s\nwant %s", got, c.want)
		}
	}
}

func TestVertexLacksRoundTrip(t *testing.T) {
	for _, lacks := range [][]uint32{{3}, {0, 1, 2, 3, 4}} {
		v := lacksVertex()
		base := v.Digest()
		v.Lacks = lacks
		if v.Digest() == base {
			t.Fatalf("Lacks %v not covered by the digest", lacks)
		}
		enc := v.Marshal(nil)
		if len(enc) != v.WireSize() {
			t.Fatalf("WireSize %d, marshalled %d", v.WireSize(), len(enc))
		}
		got, rest, err := UnmarshalVertex(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("Lacks %v: %v, %d bytes left", lacks, err, len(rest))
		}
		if !got.Equal(v) || len(got.Lacks) != len(lacks) {
			t.Fatalf("Lacks %v came back as %v", lacks, got.Lacks)
		}
		// With a no-vote certificate in front of it.
		v.NVC = &NoVoteCert{Round: 8, Agg: AggSig{Bitmap: []byte{7}}}
		if got, _, err = UnmarshalVertex(v.Marshal(nil)); err != nil || !got.Equal(v) {
			t.Fatalf("Lacks %v behind an NVC: %v", lacks, err)
		}
	}
}

// TestVertexLacksDecodeBounds: the decoder accepts only a non-empty, strictly
// ascending list of indices below the edge count, and no flag bit it does not
// know.
func TestVertexLacksDecodeBounds(t *testing.T) {
	v := lacksVertex()
	v.Lacks = []uint32{1, 3}
	good := v.Marshal(nil)
	// The list is the three bytes (count, 1, 3) behind the flag byte, which
	// follows the two weak edges (02 04 02 02 28).
	at := bytes.Index(good, []byte{0x02, 0x04, 0x02, 0x02, 0x28}) + 5
	if good[at] != vtxHasLacks || !bytes.Equal(good[at+1:at+4], []byte{2, 1, 3}) {
		t.Fatalf("layout moved: % x", good[at:at+4])
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	splice := func(list ...byte) []byte {
		return mutate(func(b []byte) []byte { return append(append(b[:at+1:at+1], list...), good[at+4:]...) })
	}
	for name, enc := range map[string][]byte{
		"unknown flag bit":     mutate(func(b []byte) []byte { b[at] |= 4; return b }),
		"flag without a list":  splice(0),
		"longer than edges":    splice(6, 0, 1, 2, 3, 4, 5),
		"index past the edges": splice(2, 1, 5),
		"descending":           splice(2, 3, 1),
		"repeated":             splice(2, 3, 3),
		"count past the bytes": splice(200, 1),
		"huge index":           splice(1, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	} {
		if _, _, err := UnmarshalVertex(enc); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	if _, _, err := UnmarshalVertex(splice(2, 1, 3)); err != nil {
		t.Fatalf("splice helper broken: %v", err)
	}
}

// TestValTakeBlock: a decoded VAL gives its block up, so that the vertex —
// which shares the message's allocation and outlives it in the DAG — does not
// keep the payload reachable; a message built in process, which an in-process
// transport hands to every receiver, is never written to.
func TestValTakeBlock(t *testing.T) {
	blk := &Block{Round: 9, Source: 11, Txs: [][]byte{{1, 2, 3}}}
	shared := &ValMsg{Vertex: lacksVertex(), Block: blk}
	if shared.TakeBlock() != blk || shared.Block != blk {
		t.Fatal("TakeBlock wrote to a message that was not decoded")
	}
	m, err := Decode(Encode(shared, nil))
	if err != nil {
		t.Fatal(err)
	}
	val := m.(*ValMsg)
	got := val.TakeBlock()
	if got == nil || got.Digest() != blk.Digest() {
		t.Fatal("decoded block lost")
	}
	if val.Block != nil {
		t.Fatal("decoded message still references its block")
	}
}
