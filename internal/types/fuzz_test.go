package types

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecode drives the wire-message decoder with arbitrary bytes: it must
// never panic, and anything it accepts must encode back to exactly the bytes
// it was decoded from.
func FuzzDecode(f *testing.F) {
	// Seed corpus: one valid encoding per message kind.
	var sig SigBytes
	digest := HashBytes([]byte("seed"))
	v := &Vertex{Round: 3, Source: 1, BlockDigest: digest,
		StrongEdges: []VertexRef{{Round: 2, Source: 0, Digest: digest}}}
	// Exercise the compressed edge encodings: a multi-byte strong-edge
	// signer bitmap plus weak edges with multi-round deltas.
	vWide := &Vertex{Round: 9, Source: 11, BlockDigest: digest,
		StrongEdges: []VertexRef{{Round: 8, Source: 0}, {Round: 8, Source: 7}, {Round: 8, Source: 13}},
		WeakEdges:   []VertexRef{{Round: 5, Source: 2}, {Round: 7, Source: 40}},
		TC:          &ViewCert{Round: 8, Agg: AggSig{Bitmap: []byte{0x55}}}}
	// Exercise the epoch/reconfig tail: a post-fence vertex carrying both a
	// join (with address + pubkey) and a leave.
	vEpoch := &Vertex{Round: 40, Source: 2, BlockDigest: digest, Epoch: 3,
		StrongEdges: []VertexRef{{Round: 39, Source: 1}},
		Reconfig: []ReconfigTx{
			{Action: ReconfigJoin, Node: 9, Addr: "10.0.0.9:7000", PubKey: digest, Sig: sig},
			{Action: ReconfigLeave, Node: 3, Sig: sig},
		}}
	seeds := []Message{
		&ValMsg{Vertex: v, Sig: sig},
		&ValMsg{Vertex: vWide, Sig: sig},
		&VtxRspMsg{Vertex: vWide},
		&ValMsg{Vertex: v, Block: &Block{Round: 3, Source: 1, Txs: [][]byte{{1, 2}}}, Sig: sig},
		&EchoMsg{Entries: []EchoEntry{{Position{3, 1}, digest}}, Voter: 2, Sig: sig},
		&EchoMsg{Entries: []EchoEntry{{Position{3, 1}, digest}, {Position{3, 2}, digest}}, Voter: 2, Sig: sig},
		&ViewVoteMsg{NoVote: true, Vote: ViewVote{Round: 5, Voter: 1, Sig: sig}},
		&ViewVoteMsg{Vote: ViewVote{Round: 5, Voter: 1, Sig: sig}},
		&TCMsg{TC: ViewCert{Round: 5, Agg: AggSig{Bitmap: []byte{7}}}},
		&VtxReqMsg{Pos: Position{3, 1}},
		&VtxRspMsg{Vertex: v},
		&ValMsg{Vertex: vEpoch, Sig: sig},
		&SnapReqMsg{},
		&SnapRspMsg{Data: []byte("wal-bytes")},
		&VtxRspMsg{Vertex: v, Block: &Block{Round: 3, Source: 1, Txs: [][]byte{{1, 2}}}},
	}
	for _, m := range seeds {
		f.Add(Encode(m, nil))
	}
	// The retired block-only pull and its reply, as they were framed: the
	// decoder refuses both (TestRetiredKindsRefused).
	for _, frame := range retiredFrames() {
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00})
	// ECHO frames have no count: the entries run up to the tail. A full
	// frame at n=7 with a three-byte voter, then the malformed neighbours of
	// a two-entry frame — an entry cut short, a tail one byte short and one
	// byte long — and a pull reply with its certificate inside.
	full := &EchoMsg{Voter: 40000, Sig: sig}
	for s := 0; s < 7; s++ {
		full.Entries = append(full.Entries, EchoEntry{Position{1 << 30, NodeID(s)}, digest})
	}
	f.Add(Encode(full, nil))
	two := Encode(seeds[5], nil)
	f.Add(append(append([]byte{}, two[:1+34+20]...), two[1+68:]...))
	f.Add(two[:len(two)-1])
	f.Add(append(append([]byte{}, two...), 0))
	f.Add(Encode(&VtxRspMsg{Vertex: vWide, Cert: &EchoCertMsg{Pos: Position{9, 11}, Digest: digest, Agg: AggSig{Bitmap: []byte{7}}}}, nil))
	// Vertices whose proposer lacked the block behind one edge, and behind
	// every edge (Vertex.Lacks).
	vLacks := *vWide
	vLacks.Lacks = []uint32{4}
	f.Add(Encode(&ValMsg{Vertex: &vLacks, Sig: sig}, nil))
	vLacks.Lacks = []uint32{0, 1, 2, 3, 4}
	f.Add(Encode(&ValMsg{Vertex: &vLacks, Sig: sig}, nil))

	// Every golden frame, and every non-canonical frame the decoder refuses.
	for _, c := range goldenFrameMsgs() {
		f.Add(Encode(c.m, nil))
	}
	for _, c := range nonCanonicalFrames() {
		f.Add(c.frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		// One encoding per message: whatever decodes is what encodes.
		if re := Encode(m, nil); !bytes.Equal(re, data) {
			t.Fatalf("%T decodes from % x but encodes to % x", m, data, re)
		}
		// Analytic sizing must track the real encoding for anything the
		// decoder accepts (synthetic payloads are the documented exception:
		// they describe bytes that are never marshaled).
		if !syntheticMsg(m) && m.WireSize() != len(data)-1 {
			t.Fatalf("WireSize %d != body length %d", m.WireSize(), len(data)-1)
		}
	})
}

// syntheticMsg reports whether m describes payload bytes it does not carry
// (simulation-only mode), where WireSize intentionally exceeds Marshal.
func syntheticMsg(m Message) bool {
	switch v := m.(type) {
	case *ValMsg:
		return v.Block != nil && v.Block.IsSynthetic()
	case *VtxRspMsg:
		return v.Block != nil && v.Block.IsSynthetic()
	}
	return false
}

// TestWireSizeMatchesMarshal is the satellite property test for the
// simulator's analytic sizing: for every message type under randomized
// contents, WireSize() must equal len(Marshal(nil)). The discrete-event
// simulator never encodes messages — it bills bandwidth by WireSize — so any
// drift here silently skews every simulated experiment.
func TestWireSizeMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	randHash := func() (h Hash) {
		rng.Read(h[:])
		return
	}
	randSig := func() (s SigBytes) {
		rng.Read(s[:])
		return
	}
	randAgg := func() AggSig {
		bm := make([]byte, 1+rng.Intn(8))
		rng.Read(bm)
		var tag [32]byte
		rng.Read(tag[:])
		return AggSig{Tag: tag, Bitmap: bm}
	}
	randVertex := func() *Vertex {
		v := &Vertex{
			Round:       Round(rng.Uint64() >> rng.Intn(60)),
			Source:      NodeID(rng.Intn(1 << 14)),
			BlockDigest: randHash(),
		}
		for i := rng.Intn(4); i > 0; i-- {
			v.StrongEdges = append(v.StrongEdges, VertexRef{
				Round: v.Round - 1, Source: NodeID(rng.Intn(64)), Digest: randHash(),
			})
		}
		for i := rng.Intn(3); i > 0; i-- {
			v.WeakEdges = append(v.WeakEdges, VertexRef{
				Round: Round(rng.Intn(5)), Source: NodeID(rng.Intn(64)), Digest: randHash(),
			})
		}
		if rng.Intn(2) == 0 {
			tc := &ViewCert{Round: v.Round - 1, Agg: randAgg()}
			v.TC = tc
		}
		if rng.Intn(2) == 0 {
			v.NVC = &ViewCert{Round: v.Round - 1, Agg: randAgg()}
		}
		if rng.Intn(2) == 0 {
			v.Epoch = rng.Uint64() >> rng.Intn(60)
			for i := rng.Intn(3); i > 0; i-- {
				addr := make([]byte, rng.Intn(MaxReconfigAddr))
				rng.Read(addr)
				v.Reconfig = append(v.Reconfig, ReconfigTx{
					Action: ReconfigAction(1 + rng.Intn(2)),
					Node:   NodeID(rng.Intn(1 << 14)),
					Addr:   string(addr),
					PubKey: randHash(),
					Sig:    randSig(),
				})
			}
		}
		v.NormalizeEdges()
		// No listed position, one, or all of them.
		switch k := v.NumEdges(); {
		case k == 0 || rng.Intn(3) == 0:
		case rng.Intn(2) == 0:
			v.Lacks = []uint32{uint32(rng.Intn(k))}
		default:
			for i := 0; i < k; i++ {
				v.Lacks = append(v.Lacks, uint32(i))
			}
		}
		return v
	}
	randBlock := func() *Block {
		b := &Block{
			Round:     Round(rng.Uint64() >> rng.Intn(60)),
			Source:    NodeID(rng.Intn(1 << 14)),
			SynthSeed: rng.Uint64(),
			CreatedAt: rng.Int63(),
		}
		for i := rng.Intn(5); i > 0; i-- {
			tx := make([]byte, rng.Intn(300))
			rng.Read(tx)
			b.Txs = append(b.Txs, tx)
		}
		return b
	}
	randPos := func() Position {
		return Position{Round: Round(rng.Uint64() >> rng.Intn(60)), Source: NodeID(rng.Intn(1 << 14))}
	}

	randEcho := func(k int) *EchoMsg {
		m := &EchoMsg{Voter: NodeID(rng.Intn(1 << 16)), Sig: randSig()}
		for ; k > 0; k-- {
			m.Entries = append(m.Entries, EchoEntry{randPos(), randHash()})
		}
		return m
	}

	const iters = 400
	for i := 0; i < iters; i++ {
		var valBlock *Block
		if rng.Intn(2) == 0 {
			valBlock = randBlock()
		}
		msgs := []Message{
			&ValMsg{Vertex: randVertex(), Block: valBlock, Sig: randSig()},
			randEcho(1),
			randEcho(2),
			randEcho(1 + rng.Intn(200)),
			&VtxRspMsg{Vertex: randVertex(), Cert: &EchoCertMsg{Pos: randPos(), Digest: randHash(), Agg: randAgg()}, Block: valBlock},
			&ViewVoteMsg{NoVote: true, Vote: ViewVote{Round: Round(rng.Intn(1 << 20)), Voter: NodeID(rng.Intn(256)), Sig: randSig()}},
			&ViewVoteMsg{Vote: ViewVote{Round: Round(rng.Intn(1 << 20)), Voter: NodeID(rng.Intn(256)), Sig: randSig()}},
			&TCMsg{TC: ViewCert{Round: Round(rng.Intn(1 << 20)), Agg: randAgg()}},
			&VtxReqMsg{Pos: randPos()},
			&VtxRspMsg{Vertex: randVertex(), Block: valBlock},
			&SnapReqMsg{},
			&SnapRspMsg{Data: func() []byte { d := make([]byte, rng.Intn(600)); rng.Read(d); return d }()},
		}
		for _, m := range msgs {
			enc := m.Marshal(nil)
			if m.WireSize() != len(enc) {
				t.Fatalf("iter %d: %T WireSize %d != marshal length %d (%#v)",
					i, m, m.WireSize(), len(enc), m)
			}
		}
	}
}

// FuzzUnmarshalVertex checks the vertex decoder in isolation: whatever it
// accepts encodes back to the same bytes.
func FuzzUnmarshalVertex(f *testing.F) {
	v := &Vertex{Round: 9, Source: 4}
	v.NormalizeEdges()
	f.Add(v.Marshal(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalVertex(data)
		if err != nil {
			return
		}
		if enc := got.Marshal(nil); !bytes.Equal(enc, data) {
			t.Fatalf("vertex decodes from % x but encodes to % x", data, enc)
		}
	})
}

// FuzzUnmarshalBlock checks the block decoder in isolation: whatever it
// accepts encodes back to the same bytes.
func FuzzUnmarshalBlock(f *testing.F) {
	b := &Block{Round: 1, Source: 2, Txs: [][]byte{{1}, {2, 3}}}
	f.Add(b.Marshal(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalBlock(data)
		if err != nil {
			return
		}
		if enc := got.Marshal(nil); !bytes.Equal(enc, data) {
			t.Fatalf("block decodes from % x but encodes to % x", data, enc)
		}
		if got.PayloadBytes() < 0 || got.TxCount() < 0 {
			t.Fatal("negative accounting")
		}
		_ = got.Digest()
	})
}
