package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/faults"
	"clanbft/internal/rbc"
	"clanbft/internal/types"
)

// The merged RBC's message diet: no certificate on the wire outside a pull
// reply, and the VAL standing in for its proposer's ECHO. These tests pin the count, the
// totality argument that replaces the relay, and the vote-counting rules
// that keep the implicit echo from being counted twice.

// TestRBCMessageComplexity pins the wire cost of one fault-free round: every
// node sends n-1 VAL frames (its own vertex) and (n-1)^2 echo entries (one per
// foreign position, to everyone else — never for its own) in n-1 ECHO frames,
// one to each peer, and no certificate and nothing else. Round 0 has no echo
// hold, so its entries may take up to one frame each. Uniform latency without
// jitter makes every echo reach every assembler before the child proposal
// that needs it, so no pull is ever sent.
func TestRBCMessageComplexity(t *testing.T) {
	for _, n := range []int{4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			fnet := faults.NewNet(n, 1, nil)
			tp := newEchoTap(fnet)
			c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, fnet: fnet})
			c.run(3 * time.Second)
			if len(tp.other) != 0 {
				t.Fatalf("fault-free run sent messages outside VAL/ECHO: %v", tp.other)
			}
			last := c.minRound()
			if last < 12 {
				t.Fatalf("only %d rounds in 3 s", last)
			}
			// Rounds every node has left behind are complete on the wire.
			for r := 0; r+2 < int(last); r++ {
				for i := 0; i < n; i++ {
					k := [2]int{i, r}
					frames := tp.frames[k] == n-1
					if r == 0 {
						frames = tp.frames[k] >= n-1 && tp.frames[k] <= (n-1)*(n-1)
					}
					if tp.vals[k] != n-1 || tp.entries[k] != (n-1)*(n-1) || !frames {
						t.Fatalf("round %d node %d sent %d VAL + %d echo entries in %d frames, want %d + %d in %d",
							r, i, tp.vals[k], tp.entries[k], tp.frames[k], n-1, (n-1)*(n-1), n-1)
					}
				}
			}
			c.checkConsistentOrder(nil)
		})
	}
}

// TestDenseTotalityWithoutCertRelay drops, toward one honest node, every
// ECHO frame with an entry for one position: the victim cannot assemble the
// certificate, and nobody announces or relays one. It must still deliver the
// vertex, through the pull that a child's reference to the position starts
// and the certificate the responder ships with it.
func TestDenseTotalityWithoutCertRelay(t *testing.T) {
	const n, victim = 4, 2
	lost := types.Position{Round: 5, Source: 1}
	fnet := faults.NewNet(n, 7, nil)
	fnet.Apply(0, faults.Event{Kind: faults.KindDrop, From: faults.All, To: victim, P: 1,
		Match: func(m types.Message) bool {
			echo, ok := m.(*types.EchoMsg)
			return ok && slices.ContainsFunc(echo.Entries, func(e types.EchoEntry) bool { return e.Pos == lost })
		}})
	pulled, certified := 0, 0
	fnet.SetTap(func(from, to types.NodeID, m types.Message) {
		switch msg := m.(type) {
		case *types.VtxReqMsg:
			if from == victim && msg.Pos == lost {
				pulled++
			}
		case *types.VtxRspMsg:
			if to == victim && msg.Vertex.Pos() == lost && msg.Cert != nil {
				certified++
			}
		}
	})
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, fnet: fnet})
	c.run(3 * time.Second)
	if pulled == 0 || certified == 0 {
		t.Fatalf("victim sent %d pulls for the position whose echoes it lost and got %d certified replies", pulled, certified)
	}
	in := c.nodes[victim].rbc.Get(lost)
	if in == nil || !in.Delivered() || in.Cert().Bitmap == nil {
		t.Fatalf("victim did not deliver %v by certified pull: %+v", lost, in)
	}
	c.checkConsistentOrder(nil)
	checkFullInclusion(t, c)
	if c.nodes[victim].MetricsSnapshot().Timeouts != 0 {
		t.Fatal("recovery went through a round timeout, not the pull path")
	}
}

// TestImplicitEchoUnderEquivocation drives an equivocating proposer by hand:
// two VALs with two digests to a split audience. The source's implicit echo
// counts once per position at every honest node — for the first VAL that
// node saw — so neither a second VAL, nor an explicit ECHO from the source,
// nor a pulled copy of the other vertex adds a vote; at most one digest
// certifies and every honest node orders that one.
func TestImplicitEchoUnderEquivocation(t *testing.T) {
	const n, byz = 4, 3
	mute := map[types.NodeID]bool{byz: true}
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, mute: mute, timeout: 700 * time.Millisecond, sigs: true})
	pos := types.Position{Round: 0, Source: byz}
	va := &types.Vertex{Round: 0, Source: byz, CreatedAt: 1}
	vb := &types.Vertex{Round: 0, Source: byz, CreatedAt: 2}
	da, db := va.DigestCached(), vb.DigestCached()
	val := func(v *types.Vertex) *types.ValMsg {
		return &types.ValMsg{Vertex: v, Sig: crypto.Sign(&c.keys[byz], vertexCtx(new(ctxBuf), v.DigestCached()))}
	}
	echo := func(d types.Hash) *types.EchoMsg {
		return signedEchoes(&c.keys[byz], byz, types.EchoEntry{Pos: pos, Digest: d})
	}
	// votes reports how many echoes node i has counted for digest d at pos,
	// and whether the source is among them.
	votes := func(i int, d types.Hash) (int, bool) {
		tally := c.nodes[i].inst(pos).Tally(d)
		return types.BitmapCount(tally), types.BitmapHas(tally, byz)
	}

	// Split audience, delivered straight into the serialized handlers. At
	// node 2 an explicit ECHO for A lands first and takes the source's one
	// vote: the VAL for B that follows is accepted as the proposal but adds
	// no second echo.
	c.nodes[0].step(msgIn(byz, val(va)))
	c.nodes[1].step(msgIn(byz, val(vb)))
	c.nodes[2].step(msgIn(byz, echo(da)))
	c.nodes[2].step(msgIn(byz, val(vb)))
	for i, d := range []types.Hash{da, db, da} {
		if got, src := votes(i, d); got != 1 || !src {
			t.Fatalf("node %d counted %d echoes for the source's first digest (source among them: %v), want exactly the source's", i, got, src)
		}
	}
	if got, _ := votes(2, db); got != 0 || c.nodes[2].inst(pos).Vertex() != vb {
		t.Fatalf("node 2 counted %d echoes for B from a source already counted for A, or dropped its proposal", got)
	}

	// A second VAL, an explicit ECHO for either digest, and a pulled copy
	// of the other vertex are all no-ops at node 0.
	c.nodes[0].step(msgIn(byz, val(vb)))
	c.nodes[0].step(msgIn(byz, echo(db)))
	c.nodes[0].step(msgIn(byz, echo(da)))
	c.nodes[0].step(msgIn(1, &types.VtxRspMsg{Vertex: vb}))
	if got, _ := votes(0, da); got != 1 {
		t.Fatalf("node 0 counts %d echoes for digest A after replays, want 1", got)
	}
	if got, _ := votes(0, db); got != 0 {
		t.Fatalf("node 0 counts %d echoes for digest B from a proposer it already counted, want 0", got)
	}
	if v := c.nodes[0].inst(pos).Vertex(); v != va {
		t.Fatal("node 0 replaced its first VAL's vertex without a certificate")
	}

	// Once the honest echoes cross, node 1 alone holds {source, 1, 2} for B
	// and certifies it; A tops out at {source, 0} everywhere. Nodes 0 and 2
	// adopt B's certificate through the pull their round-1 children start.
	c.run(10 * time.Second)
	if got := c.minOrdered(mute); got < 3*n {
		t.Fatalf("ordered only %d vertices", got)
	}
	c.checkConsistentOrder(mute)
	for i := 0; i < n; i++ {
		if mute[types.NodeID(i)] {
			continue
		}
		found := false
		for _, cv := range c.orders[i] {
			if cv.Vertex.Pos() != pos {
				continue
			}
			found = true
			if cv.Vertex.DigestCached() != db {
				t.Fatalf("node %d ordered the uncertifiable digest at %v", i, pos)
			}
		}
		if !found {
			t.Fatalf("node %d never ordered %v", i, pos)
		}
	}
}

// TestPulledCertRules: a pulled vertex is accepted only against a
// certificate with 2f+1 member signers, at least f_c+1 of them from the
// proposer's clan, whose aggregate verifies for the vertex's digest. A pull
// reply carrying any other certificate creates no instance and inserts
// nothing; the same reply with a valid one inserts the vertex.
func TestPulledCertRules(t *testing.T) {
	// f = 2, so a certificate needs 5 signers; f_c = 1, so 2 of them from
	// the clan.
	const n = 7
	clan := []types.NodeID{0, 1, 2}
	keys := testKeys(n)
	v := &types.Vertex{Round: 0, Source: 1, BlockDigest: types.HashBytes([]byte("block")), CreatedAt: 1}
	pos, d := v.Pos(), v.DigestCached()
	agg := func(digest types.Hash, signers ...types.NodeID) types.AggSig {
		a := crypto.NewAggregator(n)
		for _, id := range signers {
			a.Add(id, crypto.PartialTag(&keys[id], rbc.AppendEchoCtx(nil, pos, digest)))
		}
		return a.Sig()
	}
	badTag := agg(d, 0, 1, 3, 4, 5)
	badTag.Tag[0] ^= 1
	for _, tc := range []struct {
		name  string
		agg   types.AggSig
		valid bool
	}{
		{"bad tag", badTag, false},
		{"f_c clan signers", agg(d, 0, 3, 4, 5, 6), false},
		{"other digest", agg(types.HashBytes([]byte("other")), 0, 1, 3, 4, 5), false},
		{"valid", agg(d, 0, 1, 3, 4, 5), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, recv := oneNode(t, n, 6, topt{mode: ModeSingleClan, clans: [][]types.NodeID{clan}})
			recv.step(msgIn(3, &types.VtxRspMsg{Vertex: v, Cert: &types.EchoCertMsg{Pos: pos, Digest: d, Agg: tc.agg}}))
			if in, has := recv.rbc.Get(pos), recv.dag.Has(pos); tc.valid != has || !tc.valid && in != nil {
				t.Fatalf("instance %v, in the DAG %v; want the vertex inserted: %v", in != nil, has, tc.valid)
			}
		})
	}
}

// TestLateValAfterCertificate drives an equivocating source by hand: its VAL
// for B reaches an honest node that already holds the certificate for A. The
// late VAL must not take the position's vertex. (a) Certified from echoes,
// with A still being pulled: the pulled A is taken and delivers. (b) A
// delivered by pull: replies keep shipping A with A's certificate.
func TestLateValAfterCertificate(t *testing.T) {
	const n, byz = 4, 3
	keys := testKeys(n)
	va := &types.Vertex{Round: 0, Source: byz, CreatedAt: 1}
	vb := &types.Vertex{Round: 0, Source: byz, CreatedAt: 2}
	pos, da := va.Pos(), va.DigestCached()
	valB := &types.ValMsg{Vertex: vb, Sig: crypto.Sign(&keys[byz], vertexCtx(new(ctxBuf), vb.DigestCached()))}
	agg := crypto.NewAggregator(n)
	for _, id := range []types.NodeID{1, 2, byz} {
		agg.Add(id, crypto.PartialTag(&keys[id], rbc.AppendEchoCtx(nil, pos, da)))
	}
	certA := &types.EchoCertMsg{Pos: pos, Digest: da, Agg: agg.Sig()}

	t.Run("certified from echoes", func(t *testing.T) {
		_, node := oneNode(t, n, 0, topt{})
		for _, id := range []types.NodeID{1, 2, byz} {
			node.step(msgIn(id, signedEchoes(&keys[id], id, types.EchoEntry{Pos: pos, Digest: da})))
		}
		node.step(msgIn(byz, valB))
		node.step(msgIn(1, &types.VtxRspMsg{Vertex: va, Cert: certA}))
		if in := node.rbc.Get(pos); in == nil || !in.Delivered() || in.Vertex() != va || !node.dag.Has(pos) {
			t.Fatal("the late VAL for B kept the certified A from delivering")
		}
	})
	t.Run("delivered by pull", func(t *testing.T) {
		c, node := oneNode(t, n, 0, topt{})
		node.step(msgIn(1, &types.VtxRspMsg{Vertex: va, Cert: certA}))
		node.step(msgIn(byz, valB))
		node.step(msgIn(2, &types.VtxReqMsg{Pos: pos}))
		var rsp *types.VtxRspMsg
		if out := c.take(2); len(out) > 0 {
			rsp, _ = out[len(out)-1].m.(*types.VtxRspMsg)
		}
		if rsp == nil || rsp.Vertex != va || rsp.Cert.Digest != da {
			t.Fatalf("a pull reply ships %v under the certificate for A", rsp)
		}
	})
}

// TestSigningContextsStayOnStack: building a vertex or echo context and
// signing, verifying or folding over it allocates nothing.
func TestSigningContextsStayOnStack(t *testing.T) {
	keys := testKeys(4)
	reg := crypto.NewRegistry(keys, true)
	pos := types.Position{Round: 900, Source: 2}
	d := types.HashBytes([]byte("v"))
	esig := crypto.Sign(&keys[1], rbc.AppendEchoCtx(nil, pos, d))
	vsig := crypto.Sign(&keys[1], vertexCtx(new(ctxBuf), d))
	if a := testing.AllocsPerRun(50, func() {
		var buf ctxBuf
		if !reg.Verify(1, rbc.AppendEchoCtx(buf[:0], pos, d), esig) || !reg.Verify(1, vertexCtx(&buf, d), vsig) {
			t.Fatal("signature rejected")
		}
		_ = reg.PartialFor(1, rbc.AppendEchoCtx(buf[:0], pos, d))
		_ = reg.SignFor(&keys[1], rbc.AppendEchoCtx(buf[:0], pos, d))
	}); a != 0 {
		t.Fatalf("%v allocations per verify+verify+partial+sign, want 0", a)
	}
}

// TestProposalEncodesAtMostTwoFrames: a proposal goes out as one frame with
// the block (to the proposer's clan) and one without (to the rest), however
// many peers there are — never one marshal per peer.
func TestProposalEncodesAtMostTwoFrames(t *testing.T) {
	const n = 7
	clan := []types.NodeID{1, 3, 5}
	c := newTCluster(t, n, topt{stepped: true, mode: ModeSingleClan, clans: [][]types.NodeID{clan}, txCount: 2})
	// Per proposer and round: the frames its VALs took, and their recipients.
	type key struct {
		src types.NodeID
		r   types.Round
	}
	frames, recipients := map[key]map[int]bool{}, map[key]int{}
	count := func(p *packet) bool {
		if val, ok := p.m.(*types.ValMsg); ok {
			k := key{p.from, val.Vertex.Round}
			if frames[k] == nil {
				frames[k] = map[int]bool{}
			}
			frames[k][p.frame] = true
			recipients[k]++
		}
		return true
	}
	c.runTo(3, 6, count)
	for i := range c.inFlight {
		count(&c.inFlight[i])
	}
	for i := types.NodeID(0); i < n; i++ {
		want := 1 // outside the clan: the vertex alone, to everyone
		if i%2 == 1 {
			want = 2 // a clan member: block to the clan, vertex to the rest
		}
		proposed := 0
		for k, fs := range frames {
			if k.src != i {
				continue
			}
			proposed++
			if len(fs) != want || recipients[k] != n {
				t.Fatalf("node %d round %d: VAL cost %d frames to %d recipients, want %d to %d",
					i, k.r, len(fs), recipients[k], want, n)
			}
		}
		if proposed < 5 {
			t.Fatalf("node %d proposed only %d rounds", i, proposed)
		}
	}
}
