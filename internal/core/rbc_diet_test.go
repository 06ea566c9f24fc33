package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/faults"
	"clanbft/internal/simnet"
	"clanbft/internal/transport"
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
			c.net.Run(3 * time.Second)
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
	c.net.Run(3 * time.Second)
	if pulled == 0 || certified == 0 {
		t.Fatalf("victim sent %d pulls for the position whose echoes it lost and got %d certified replies", pulled, certified)
	}
	in := c.nodes[victim].instIfAny(lost)
	if in == nil || !in.delivered || in.certAgg.Bitmap == nil {
		t.Fatalf("victim did not deliver %v by certified pull: %+v", lost, in)
	}
	c.checkConsistentOrder(nil)
	checkFullInclusion(t, c)
	if c.nodes[victim].Metrics.Timeouts != 0 {
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
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, mute: mute, timeout: 700 * time.Millisecond})
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
		tally := c.nodes[i].inst(pos).tallyOf(d)
		if tally == nil {
			return 0, false
		}
		return tally.total, types.BitmapHas(tally.agg.Bitmap(), byz)
	}

	// Split audience, delivered straight into the serialized handlers. At
	// node 2 an explicit ECHO for A lands first and takes the source's one
	// vote: the VAL for B that follows is accepted as the proposal but adds
	// no second echo.
	c.nodes[0].handle(byz, val(va))
	c.nodes[1].handle(byz, val(vb))
	c.nodes[2].handle(byz, echo(da))
	c.nodes[2].handle(byz, val(vb))
	for i, d := range []types.Hash{da, db, da} {
		if got, src := votes(i, d); got != 1 || !src {
			t.Fatalf("node %d counted %d echoes for the source's first digest (source among them: %v), want exactly the source's", i, got, src)
		}
	}
	if got, _ := votes(2, db); got != 0 || c.nodes[2].inst(pos).vertex != vb {
		t.Fatalf("node 2 counted %d echoes for B from a source already counted for A, or dropped its proposal", got)
	}

	// A second VAL, an explicit ECHO for either digest, and a pulled copy
	// of the other vertex are all no-ops at node 0.
	c.nodes[0].handle(byz, val(vb))
	c.nodes[0].handle(byz, echo(db))
	c.nodes[0].handle(byz, echo(da))
	c.nodes[0].handle(1, &types.VtxRspMsg{Vertex: vb})
	if got, _ := votes(0, da); got != 1 {
		t.Fatalf("node 0 counts %d echoes for digest A after replays, want 1", got)
	}
	if got, _ := votes(0, db); got != 0 {
		t.Fatalf("node 0 counts %d echoes for digest B from a proposer it already counted, want 0", got)
	}
	if v := c.nodes[0].inst(pos).vertex; v != va {
		t.Fatal("node 0 replaced its first VAL's vertex without a certificate")
	}

	// Once the honest echoes cross, node 1 alone holds {source, 1, 2} for B
	// and certifies it; A tops out at {source, 0} everywhere. Nodes 0 and 2
	// adopt B's certificate through the pull their round-1 children start.
	c.net.Run(10 * time.Second)
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

// TestSigningContextsStayOnStack: building a vertex or echo context and
// signing, verifying or folding over it allocates nothing.
func TestSigningContextsStayOnStack(t *testing.T) {
	keys := crypto.GenerateKeys(4, 1)
	reg := crypto.NewRegistry(keys, true)
	pos := types.Position{Round: 900, Source: 2}
	d := types.HashBytes([]byte("v"))
	esig := crypto.Sign(&keys[1], echoCtx(new(ctxBuf), pos, d))
	vsig := crypto.Sign(&keys[1], vertexCtx(new(ctxBuf), d))
	if a := testing.AllocsPerRun(50, func() {
		var buf ctxBuf
		if !reg.Verify(1, echoCtx(&buf, pos, d), esig) || !reg.Verify(1, vertexCtx(&buf, d), vsig) {
			t.Fatal("signature rejected")
		}
		_ = reg.PartialFor(1, echoCtx(&buf, pos, d))
		_ = reg.SignFor(&keys[1], echoCtx(&buf, pos, d))
	}); a != 0 {
		t.Fatalf("%v allocations per verify+verify+partial+sign, want 0", a)
	}
}

// valFrames wraps an endpoint and counts, per proposed round, how many wire
// frames its VALs cost under the transports' encode-once contract: one per
// Multicast call, one per Send.
type valFrames struct {
	transport.Endpoint
	frames, recipients map[types.Round]int
}

func (e *valFrames) Send(to types.NodeID, m types.Message) {
	e.count(m, 1)
	e.Endpoint.Send(to, m)
}

func (e *valFrames) Multicast(tos []types.NodeID, m types.Message) {
	e.count(m, len(tos))
	e.Endpoint.Multicast(tos, m)
}

func (e *valFrames) count(m types.Message, tos int) {
	if val, ok := m.(*types.ValMsg); ok {
		e.frames[val.Vertex.Round]++
		e.recipients[val.Vertex.Round] += tos
	}
}

// TestProposalEncodesAtMostTwoFrames: a proposal goes out as one frame with
// the block (to the proposer's clan) and one without (to the rest), however
// many peers there are — never one marshal per peer.
func TestProposalEncodesAtMostTwoFrames(t *testing.T) {
	const n = 7
	clan := []types.NodeID{1, 3, 5}
	net := simnet.New(simnet.Config{N: n, Seed: 3, LatencyRTTms: [][]float64{{20}}, JitterPct: -1})
	keys := crypto.GenerateKeys(n, 21)
	reg := crypto.NewRegistry(keys, true)
	eps := make([]*valFrames, n)
	for i := range eps {
		id := types.NodeID(i)
		eps[i] = &valFrames{Endpoint: net.Endpoint(id), frames: map[types.Round]int{}, recipients: map[types.Round]int{}}
		New(Config{
			Self: id, N: n, Mode: ModeSingleClan, Clans: [][]types.NodeID{clan},
			Key: &keys[i], Reg: reg, Blocks: &testSource{id: id, txCount: 2, txSize: 64},
		}, eps[i], net.Clock(id)).Start()
	}
	net.Run(time.Second)
	for i, ep := range eps {
		want := 1 // outside the clan: the vertex alone, to everyone
		if i%2 == 1 {
			want = 2 // a clan member: block to the clan, vertex to the rest
		}
		if len(ep.frames) < 5 {
			t.Fatalf("node %d proposed only %d rounds", i, len(ep.frames))
		}
		for r, got := range ep.frames {
			if got != want || ep.recipients[r] != n {
				t.Fatalf("node %d round %d: VAL cost %d frames to %d recipients, want %d to %d",
					i, r, got, ep.recipients[r], want, n)
			}
		}
	}
}

// tallyOf returns the instance's tally for digest, or nil.
func (in *vinst) tallyOf(digest types.Hash) *echoTally {
	if in.hasFirst && in.firstDigest == digest {
		return &in.first
	}
	return in.others[digest]
}
