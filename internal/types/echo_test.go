package types

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

func testEcho(rng *rand.Rand, k int, voter NodeID) *EchoMsg {
	m := &EchoMsg{Voter: voter}
	rng.Read(m.Sig[:])
	for i := 0; i < k; i++ {
		e := EchoEntry{Pos: Position{Round: Round(rng.Uint64() >> rng.Intn(60)), Source: NodeID(rng.Intn(1 << 16))}}
		rng.Read(e.Digest[:])
		m.Entries = append(m.Entries, e)
	}
	return m
}

// TestEchoOneEntryIsTheSinglePositionFrame: the ECHO frame replaced a
// message that carried one position. With one entry its encoding is that
// message's, byte for byte — round, source, digest, voter, signature — so a
// burst of one echo costs on the wire what it always did.
func TestEchoOneEntryIsTheSinglePositionFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		m := testEcho(rng, 1, NodeID(rng.Intn(1<<16)))
		e := m.Entries[0]
		want := []byte{byte(KindEcho)}
		want = binary.AppendUvarint(want, uint64(e.Pos.Round))
		want = binary.AppendUvarint(want, uint64(e.Pos.Source))
		want = append(want, e.Digest[:]...)
		want = binary.AppendUvarint(want, uint64(m.Voter))
		want = append(want, m.Sig[:]...)
		if got := Encode(m, nil); !bytes.Equal(got, want) {
			t.Fatalf("one-entry ECHO encodes as\n% x, the single-position frame was\n% x", got, want)
		}
	}
}

// TestEchoRoundTrip: 1, 2 and n entries, voters whose id takes one, two and
// three bytes, through both decoders.
func TestEchoRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	dec := Decoder{}
	for _, k := range []int{1, 2, 7, 200, entrySlabSize + 1} {
		for _, voter := range []NodeID{0, 127, 128, 16383, 16384, 65535} {
			m := testEcho(rng, k, voter)
			enc := Encode(m, nil)
			if m.WireSize() != len(enc)-1 {
				t.Fatalf("k=%d: WireSize %d, marshalled %d", k, m.WireSize(), len(enc)-1)
			}
			plain, err := Decode(enc)
			if err != nil {
				t.Fatalf("k=%d voter=%d: %v", k, voter, err)
			}
			arena, err := dec.Decode(enc)
			if err != nil {
				t.Fatalf("k=%d voter=%d (arena): %v", k, voter, err)
			}
			for _, got := range []*EchoMsg{plain.(*EchoMsg), arena.(*EchoMsg)} {
				if got.Voter != voter || got.Sig != m.Sig || len(got.Entries) != k {
					t.Fatalf("k=%d voter=%d: decoded voter %d with %d entries", k, voter, got.Voter, len(got.Entries))
				}
				for i := range got.Entries {
					if got.Entries[i] != m.Entries[i] {
						t.Fatalf("k=%d: entry %d differs", k, i)
					}
				}
			}
		}
	}
}

// TestEchoDecodeBounds: the frame carries no count, so the decoder finds the
// tail by what is left. Every way of being a byte off is an error, never a
// different message.
func TestEchoDecodeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	two := Encode(testEcho(rng, 2, 300), nil)
	entry := (len(two) - 1 - 2 - 64) / 2
	bad := map[string][]byte{
		"no entry":         append([]byte{byte(KindEcho)}, two[1+2*entry:]...),
		"kind byte alone":  two[:1],
		"truncated entry":  append(append([]byte{}, two[:1+entry+20]...), two[1+2*entry:]...),
		"tail 1 short":     two[:len(two)-1],
		"tail 1 long":      append(append([]byte{}, two...), 0),
		"voter missing":    append(append([]byte{}, two[:1+2*entry]...), two[1+2*entry+2:]...),
		"entry and a half": two[:1+entry+entry/2],
	}
	for name, b := range bad {
		if m, err := Decode(b); err == nil {
			t.Errorf("%s: decoded as %d entries from voter %d", name, len(m.(*EchoMsg).Entries), m.(*EchoMsg).Voter)
		}
		var dec Decoder
		if _, err := dec.Decode(b); err == nil {
			t.Errorf("%s: the arena decoder accepted it", name)
		}
	}
	// A rejected frame does not use up or dirty its arena slot.
	var dec Decoder
	if _, err := dec.Decode(bad["tail 1 short"]); err == nil {
		t.Fatal("short tail accepted")
	}
	m, err := dec.Decode(Encode(testEcho(rng, 1, 5), nil))
	if err != nil || len(m.(*EchoMsg).Entries) != 1 || m.(*EchoMsg).PreVerified() {
		t.Fatalf("decode after a rejected frame: %v %+v", err, m)
	}
}

// TestEchoArena: frames decoded by one Decoder are carved from shared blocks
// and must not be able to reach each other — growing one frame's entry list
// cannot write into the next one's — and the arena makes a steady stream of
// frames cost a fraction of an allocation each.
func TestEchoArena(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a, b := testEcho(rng, 3, 1), testEcho(rng, 2, 2)
	var dec Decoder
	ma, err := dec.Decode(Encode(a, nil))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := dec.Decode(Encode(b, nil))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := ma.(*EchoMsg).Entries, mb.(*EchoMsg).Entries
	if cap(ea) != len(ea) {
		t.Fatalf("a decoded frame's entries have spare capacity %d", cap(ea)-len(ea))
	}
	_ = append(ea, EchoEntry{Pos: Position{Round: 99}})
	if eb[0] != b.Entries[0] {
		t.Fatal("appending to one frame's entries overwrote the next frame's")
	}

	frames := [][]byte{Encode(testEcho(rng, 1, 3), nil), Encode(testEcho(rng, 2, 3), nil), Encode(testEcho(rng, 6, 3), nil)}
	const batch = 64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			if _, err := dec.Decode(frames[i%len(frames)]); err != nil {
				t.Fatal(err)
			}
		}
	})
	// 64 frames with 192 entries between them: two blocks of each kind.
	if allocs > 4 && !raceEnabled {
		t.Fatalf("decoding %d echo frames allocates %.1f, want <= 4", batch, allocs)
	}
}
