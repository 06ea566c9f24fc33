package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/faults"
	"clanbft/internal/simnet"
	"clanbft/internal/types"
)

// Echoes at drain granularity: a node signs and frames the echoes of one
// mailbox drain once. These tests pin what that must not change — tallies,
// certificates, delivery order, per-sender wire order, the bytes of a
// one-echo burst — and what a Byzantine voter can do with a k-entry frame.

// signedEchoes builds voter's ECHO frame for entries, signed the way
// flushEchoes signs it.
func signedEchoes(key *crypto.KeyPair, voter types.NodeID, entries ...types.EchoEntry) *types.EchoMsg {
	return &types.EchoMsg{Entries: entries, Voter: voter,
		Sig: crypto.Sign(key, echoFrameCtx(new(echoFrameBuf), entries))}
}

// round0 returns src's round-0 vertex and its signed VAL.
func round0(keys []crypto.KeyPair, src types.NodeID) (*types.Vertex, *types.ValMsg) {
	v := &types.Vertex{Round: 0, Source: src, CreatedAt: 1 + int64(src)}
	return v, &types.ValMsg{Vertex: v, Sig: crypto.Sign(&keys[src], vertexCtx(new(ctxBuf), v.DigestCached()))}
}

// echoFrames returns the ECHO frames among ps.
func echoFrames(ps []packet) (fs []*types.EchoMsg) {
	for _, p := range ps {
		if f, ok := p.m.(*types.EchoMsg); ok {
			fs = append(fs, f)
		}
	}
	return fs
}

// startedNode is node 0 of n alone on the bed, started, its round-0 VAL
// handled and off the wire.
func startedNode(t *testing.T, n int) *tcluster {
	c, node := oneNode(t, n, 0, topt{})
	node.Start()
	c.drain(0) // its own VAL: an endpoint delivers a broadcast to its sender too
	c.inFlight = nil
	return c
}

// heard takes what node 0 put on the wire for each of its peers off it, by
// peer, and returns it with the number of frames to peers.
func heard(c *tcluster) (frames int, by [][]packet) {
	by = make([][]packet, c.n)
	for peer := types.NodeID(1); int(peer) < c.n; peer++ {
		by[peer] = c.take(peer)
		frames += len(by[peer])
	}
	return frames, by
}

// TestEchoFramingEquivalence: the same echoes, in the same order, applied as
// one-entry frames, as one frame per voter, or in a random split between the
// two leave identical tallies, identical certificates (the aggregate byte for
// byte) and the same delivery order.
func TestEchoFramingEquivalence(t *testing.T) {
	const n = 7
	keys := testKeys(n)
	var vals []*types.ValMsg
	var all []types.EchoEntry
	for src := types.NodeID(1); src < n; src++ {
		v, val := round0(keys, src)
		vals = append(vals, val)
		all = append(all, types.EchoEntry{Pos: v.Pos(), Digest: v.DigestCached()})
	}
	type outcome struct {
		delivered []types.Position
		aggs      map[types.Position]types.AggSig
		totals    map[types.Position]int
	}
	// run applies every voter's echoes (its own position left out), each
	// voter's list cut into frames at the offsets cut(k) returns.
	run := func(rng *rand.Rand, cut func(k int) []int) outcome {
		_, node := oneNode(t, n, 0, topt{})
		for _, val := range vals {
			node.step(msgIn(val.Vertex.Source, val))
		}
		for voter := types.NodeID(1); voter < n; voter++ {
			var mine []types.EchoEntry
			for _, e := range all {
				if e.Pos.Source != voter {
					mine = append(mine, e)
				}
			}
			rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
			from := 0
			for _, to := range append(cut(len(mine)), len(mine)) {
				if to > from {
					node.step(msgIn(voter, signedEchoes(&keys[voter], voter, mine[from:to]...)))
					from = to
				}
			}
		}
		o := outcome{aggs: map[types.Position]types.AggSig{}, totals: map[types.Position]int{}}
		for _, v := range node.rbc.Delivered(0) {
			o.delivered = append(o.delivered, v.Pos())
		}
		for _, e := range all {
			in := node.rbc.Get(e.Pos)
			if in == nil || in.Cert().Bitmap == nil {
				t.Fatalf("%v not certified", e.Pos)
			}
			o.aggs[e.Pos], o.totals[e.Pos] = in.Cert(), types.BitmapCount(in.Tally(e.Digest))
		}
		return o
	}
	for seed := int64(0); seed < 20; seed++ {
		single := run(rand.New(rand.NewSource(seed)), func(k int) (cuts []int) {
			for i := 1; i < k; i++ {
				cuts = append(cuts, i)
			}
			return cuts
		})
		if len(single.delivered) != n-1 {
			t.Fatalf("seed %d: delivered %d of %d", seed, len(single.delivered), n-1)
		}
		whole := run(rand.New(rand.NewSource(seed)), func(int) []int { return nil })
		splitRng := rand.New(rand.NewSource(seed + 1000))
		split := run(rand.New(rand.NewSource(seed)), func(k int) []int { return []int{splitRng.Intn(k + 1)} })
		for name, got := range map[string]outcome{"one frame per voter": whole, "random split": split} {
			if fmt.Sprint(got.delivered) != fmt.Sprint(single.delivered) {
				t.Fatalf("seed %d, %s: delivery order %v, one-entry frames gave %v", seed, name, got.delivered, single.delivered)
			}
			for pos, want := range single.aggs {
				if a := got.aggs[pos]; a.Tag != want.Tag || !bytes.Equal(a.Bitmap, want.Bitmap) || got.totals[pos] != single.totals[pos] {
					t.Fatalf("seed %d, %s: %v certified by %x/%x after %d echoes, one-entry frames gave %x/%x after %d",
						seed, name, pos, a.Tag[:4], a.Bitmap, got.totals[pos], want.Tag[:4], want.Bitmap, single.totals[pos])
				}
			}
		}
	}
}

// TestOneEchoFramePerDrain: n-1 VALs inside one drain cost one ECHO frame
// per peer and one signature; a drain apart they cost n-1 frames, each the
// single-position frame the protocol used to send — same length, same signed
// context.
func TestOneEchoFramePerDrain(t *testing.T) {
	const n = 4
	t.Run("one drain", func(t *testing.T) {
		c := startedNode(t, n)
		signs := c.clk.signs
		for src := types.NodeID(1); src < n; src++ {
			_, val := round0(c.keys, src)
			c.inject(src, 0, val)
		}
		c.drain(0)
		frames, by := heard(c)
		if frames != n-1 {
			t.Fatalf("%d frames left for %d VALs in one drain, want one ECHO frame to each of %d peers", frames, n-1, n-1)
		}
		if got := c.clk.signs - signs; got != 1 {
			t.Fatalf("signed %d times in one drain, want 1", got)
		}
		var first *types.EchoMsg
		for peer := 1; peer < n; peer++ {
			fs := echoFrames(by[peer])
			if len(fs) != 1 {
				t.Fatalf("peer %d heard %d ECHO frames, want 1", peer, len(fs))
			}
			f := fs[0]
			if first == nil {
				first = f
			}
			if same := bytes.Equal(f.Marshal(nil), first.Marshal(nil)); !same || len(f.Entries) != n-1 {
				t.Fatalf("peer %d got a frame of %d entries (the same as peer 1's: %v), want the one frame of %d", peer, len(f.Entries), same, n-1)
			}
		}
		if !c.reg.Verify(0, echoFrameCtx(new(echoFrameBuf), first.Entries), first.Sig) {
			t.Fatal("the frame's signature does not cover its entries")
		}
		for i, e := range first.Entries {
			if v, _ := round0(c.keys, types.NodeID(i+1)); e.Pos != v.Pos() || e.Digest != v.DigestCached() {
				t.Fatalf("entry %d is %v, want the echo of %v in arrival order", i, e.Pos, v.Pos())
			}
		}
	})
	t.Run("a drain apart", func(t *testing.T) {
		c := startedNode(t, n)
		signs := c.clk.signs
		for src := types.NodeID(1); src < n; src++ {
			_, val := round0(c.keys, src)
			c.inject(src, 0, val)
			c.drain(0)
		}
		frames, by := heard(c)
		if frames != (n-1)*(n-1) {
			t.Fatalf("%d frames left, want %d one-entry ECHO frames to each of %d peers", frames, n-1, n-1)
		}
		if got := c.clk.signs - signs; got != n-1 {
			t.Fatalf("signed %d times, want %d", got, n-1)
		}
		fs := echoFrames(by[1])
		if len(fs) != n-1 {
			t.Fatalf("peer 1 heard %d ECHO frames, want %d", len(fs), n-1)
		}
		for i, f := range fs {
			v, _ := round0(c.keys, types.NodeID(i+1))
			dg := v.DigestCached()
			// The single-position frame: round, source, digest, voter,
			// signature; signed over 'E', round, source, digest.
			wire := binary.AppendUvarint(binary.AppendUvarint(nil, 0), uint64(v.Source))
			wire = append(binary.AppendUvarint(append(wire, dg[:]...), 0), f.Sig[:]...)
			ctx := append(binary.AppendUvarint(binary.AppendUvarint([]byte{'E'}, 0), uint64(v.Source)), dg[:]...)
			if len(f.Entries) != 1 || !bytes.Equal(f.Marshal(nil), wire) || f.WireSize() != len(wire) {
				t.Fatalf("frame %d is %d entries in %d bytes, want the %d-byte single-position frame", i, len(f.Entries), f.WireSize(), len(wire))
			}
			if !c.reg.Verify(0, ctx, f.Sig) {
				t.Fatalf("frame %d is not signed over the single-position context", i)
			}
		}
	})
}

// TestOneEchoFramePerBatchedArrival: on the simulator with batching on, k
// messages that each let a node echo and that reach it in one batched
// arrival leave as one ECHO frame of k entries — the drain is the arrival,
// not the handler call. A VAL comes only from its proposer, so the k
// messages are one peer's pull replies carrying the blocks of k round-0
// vertices whose VALs came without them.
func TestOneEchoFramePerBatchedArrival(t *testing.T) {
	const n, k = 4, 3
	keys := testKeys(n)
	net := simnet.New(simnet.Config{N: n, Seed: 1, LatencyRTTms: [][]float64{{2}}, JitterPct: -1, BatchWindow: time.Millisecond})
	fnet := faults.NewNet(n, 1, nil)
	var frames []*types.EchoMsg // node 0's ECHO frames, as node 1 hears them
	fnet.SetTap(func(_, to types.NodeID, m types.Message) {
		if f, ok := m.(*types.EchoMsg); ok && to == 1 {
			frames = append(frames, f)
		}
	})
	node := newNode(keys, nil, Config{Params: Params{RoundTimeout: time.Hour}}, fnet.Wrap(net.Endpoint(0), net.Clock(0)), net.Clock(0))
	node.Start()
	t.Cleanup(node.Stop)
	var rsps []*types.VtxRspMsg
	for src := types.NodeID(1); src <= k; src++ {
		blk := &types.Block{Round: 0, Source: src, Txs: [][]byte{{byte(src)}}}
		v := &types.Vertex{Round: 0, Source: src, BlockDigest: blk.Digest(), CreatedAt: 1}
		net.Endpoint(src).Send(0, &types.ValMsg{Vertex: v, Sig: crypto.Sign(&keys[src], vertexCtx(new(ctxBuf), v.DigestCached()))})
		rsps = append(rsps, &types.VtxRspMsg{Vertex: v, Block: blk})
	}
	net.Run(10 * time.Millisecond)
	if len(frames) != 0 {
		t.Fatalf("%d ECHO frames before any block arrived", len(frames))
	}
	for _, rsp := range rsps {
		net.Endpoint(1).Send(0, rsp)
	}
	net.Run(10 * time.Millisecond)
	if len(frames) != 1 || len(frames[0].Entries) != k {
		var sizes []int
		for _, f := range frames {
			sizes = append(sizes, len(f.Entries))
		}
		t.Fatalf("%d blocks in one batched arrival left ECHO frames of %v entries, want one frame of %d", k, sizes, k)
	}
}

// TestEchoNotHeldWhileIdle: a queued echo leaves at the drain end the mailbox
// gives before it waits on a verify verdict not yet in, and a node stopped
// mid-drain sends nothing afterwards. (That the mailbox ends the drain before
// that wait is the transport's rule: TestMailboxDrainHook checks it.)
func TestEchoNotHeldWhileIdle(t *testing.T) {
	const n = 4
	t.Run("stalled verdict", func(t *testing.T) {
		c := startedNode(t, n)
		_, val1 := round0(c.keys, 1)
		_, val2 := round0(c.keys, 2)
		c.inject(1, 0, val1)
		c.inject(2, 0, val2)
		in := c.take(0)
		// Node 2's VAL waits on its verdict; the drain ends before that wait,
		// and node 1's echo must not wait with it.
		c.deliver(in[0])
		c.drainEnd(0)
		frames, by := heard(c)
		if f := echoFrames(by[1]); len(f) != 1 || len(f[0].Entries) != 1 || f[0].Entries[0].Pos.Source != 1 {
			t.Fatalf("while the next verdict is out, peer 1 heard %d ECHO frames, want one with the echo of node 1's vertex", len(f))
		}
		if frames != n-1 {
			t.Fatalf("%d frames left before the stalled verdict, want %d", frames, n-1)
		}
		c.deliver(in[1])
		c.drainEnd(0)
		_, by = heard(c)
		if f := echoFrames(by[1]); len(f) != 1 || len(f[0].Entries) != 1 || f[0].Entries[0].Pos.Source != 2 {
			t.Fatalf("after the verdict, peer 1 heard %d ECHO frames, want one with the echo of node 2's vertex", len(f))
		}
	})
	t.Run("stop mid-drain", func(t *testing.T) {
		c := startedNode(t, n)
		_, val := round0(c.keys, 1)
		c.inject(1, 0, val)
		c.deliver(c.take(0)...)
		c.nodes[0].Stop()
		c.drainEnd(0)
		if got := len(c.inFlight); got != 0 {
			t.Fatalf("a node stopped mid-drain sent %d frames afterwards", got)
		}
	})
}

// TestEchoFrameCap: however many echoes one drain produces, no frame carries
// more than n entries, every entry reaches every receiver's tally, and a
// frame with n+1 entries is refused whole without creating instance state.
func TestEchoFrameCap(t *testing.T) {
	const n = 4
	keys := testKeys(n)
	c, node := oneNode(t, n, 1, topt{})
	node.Start()
	c.inFlight = nil // the round-0 proposal
	// A node catching up several rounds at once: 3n echoes in one drain.
	var want []types.EchoEntry
	node.mu.Lock()
	for r := types.Round(0); len(want) < 3*n; r++ {
		for src := types.NodeID(0); src < n; src++ {
			if src != 1 {
				e := types.EchoEntry{Pos: types.Position{Round: r, Source: src}, Digest: types.HashBytes([]byte{byte(r), byte(src)})}
				want = append(want, e)
				node.queueEcho(e.Pos, e.Digest)
			}
		}
	}
	node.mu.Unlock()
	c.drainEnd(1)
	var got []types.EchoEntry
	_, receiver := oneNode(t, n, 0, topt{})
	out := c.take(0) // one packet a frame
	for _, f := range echoFrames(out) {
		if len(f.Entries) > n || len(f.Entries) == 0 {
			t.Fatalf("a frame of %d entries left, cap is %d", len(f.Entries), n)
		}
		got = append(got, f.Entries...)
		if !node.Verifier()(1, f) {
			t.Fatal("frame fails the verifier")
		}
		receiver.step(msgIn(1, f))
	}
	if len(out) != len(echoFrames(out)) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%d echoes queued, %d left in %d frames (%d ECHO), or out of order", len(want), len(got), len(out), len(echoFrames(out)))
	}
	for _, e := range want {
		in := receiver.rbc.Get(e.Pos)
		if in == nil || !types.BitmapHas(in.Tally(e.Digest), 1) {
			t.Fatalf("the receiver did not count the echo for %v", e.Pos)
		}
	}

	long := signedEchoes(&keys[1], 1, append(want[:n:n], types.EchoEntry{Pos: types.Position{Round: 9, Source: 0}})...)
	_, fresh := oneNode(t, n, 0, topt{})
	fresh.step(msgIn(1, long))
	if fresh.rbc.Rounds() != 0 {
		t.Fatalf("a frame of %d entries created state in %d rounds", len(long.Entries), fresh.rbc.Rounds())
	}
	if fresh.Verifier()(1, long) {
		t.Fatal("the verifier passed a frame longer than the handler accepts")
	}
	fresh.step(msgIn(1, signedEchoes(&keys[1], 1, long.Entries[:n]...)))
	if fresh.rbc.Get(want[0].Pos) == nil {
		t.Fatal("a frame of exactly n entries was refused")
	}
}

// TestEchoFrameByzantineVoter: what a voter can put in a frame, and what it
// gets for it — one counted echo per position at most, bad entries skipped
// without taking their neighbours along, nothing at all for a bad signature,
// and no second reading of a signature it made.
func TestEchoFrameByzantineVoter(t *testing.T) {
	const n, byz = 7, 3
	keys := testKeys(n)
	at := func(r types.Round, src types.NodeID) types.Position { return types.Position{Round: r, Source: src} }
	da, db := types.HashBytes([]byte("a")), types.HashBytes([]byte("b"))
	counted := func(node *Node, pos types.Position, d types.Hash) int {
		in := node.rbc.Get(pos)
		if in == nil {
			return 0
		}
		return types.BitmapCount(in.Tally(d))
	}

	_, node := oneNode(t, n, 0, topt{})
	node.step(msgIn(byz, signedEchoes(&keys[byz], byz,
		types.EchoEntry{Pos: at(0, 1), Digest: da},
		types.EchoEntry{Pos: at(0, 1), Digest: da}, // the same echo again
		types.EchoEntry{Pos: at(0, 2), Digest: da},
		types.EchoEntry{Pos: at(0, 2), Digest: db}, // a second digest at one position
	)))
	if counted(node, at(0, 1), da) != 1 || counted(node, at(0, 2), da) != 1 || counted(node, at(0, 2), db) != 0 {
		t.Fatalf("a frame listing positions twice counted %d, %d and %d echoes, want 1, 1, 0",
			counted(node, at(0, 1), da), counted(node, at(0, 2), da), counted(node, at(0, 2), db))
	}

	// Entries no single-position ECHO would have been counted for are
	// skipped; the ones between them count.
	_, node = oneNode(t, n, 0, topt{})
	node.mu.Lock()
	node.round = 500 // rounds below the horizon need one
	node.dag.GC(400)
	node.mu.Unlock()
	node.step(msgIn(byz, signedEchoes(&keys[byz], byz,
		types.EchoEntry{Pos: at(500, n+3), Digest: da}, // no such source
		types.EchoEntry{Pos: at(500, 1), Digest: da},
		types.EchoEntry{Pos: at(10, 1), Digest: da}, // below the GC horizon
		types.EchoEntry{Pos: at(501, 1), Digest: da},
		types.EchoEntry{Pos: at(1<<40, 1), Digest: da}, // far future
		types.EchoEntry{Pos: at(502, 1), Digest: da},
	)))
	for r := types.Round(500); r <= 502; r++ {
		if counted(node, at(r, 1), da) != 1 {
			t.Fatalf("the echo for round %d, between two bad entries, was not counted", r)
		}
	}
	if node.rbc.Rounds() != 3 {
		t.Fatalf("state in %d rounds after three countable entries", node.rbc.Rounds())
	}

	// A non-member source or voter: membership is per epoch.
	_, node = oneNode(t, n, 0, topt{members: []types.NodeID{0, 1, 3, 4, 5}})
	node.step(msgIn(byz, signedEchoes(&keys[byz], byz,
		types.EchoEntry{Pos: at(0, 2), Digest: da}, // node 2 is not a member
		types.EchoEntry{Pos: at(0, 1), Digest: da},
	)))
	if node.rbc.Get(at(0, 2)) != nil || counted(node, at(0, 1), da) != 1 {
		t.Fatal("an entry for a non-member source was counted, or took its neighbour along")
	}

	// A bad signature: nothing counts, no instance appears, and the pool's
	// verifier rejects the frame.
	_, node = oneNode(t, n, 0, topt{})
	good := signedEchoes(&keys[byz], byz,
		types.EchoEntry{Pos: at(0, 1), Digest: da}, types.EchoEntry{Pos: at(0, 2), Digest: db}, types.EchoEntry{Pos: at(1, 1), Digest: da})
	forged := *good
	forged.Sig[5] ^= 1
	node.step(msgIn(byz, &forged))
	if node.rbc.Rounds() != 0 || node.Verifier()(byz, &forged) {
		t.Fatal("a frame with a bad signature touched instance state or passed the verifier")
	}

	// The signature over k entries is a signature over that list only.
	e := good.Entries
	for name, list := range map[string][]types.EchoEntry{
		"prefix":       e[:2],
		"suffix":       e[1:],
		"single entry": e[:1],
		"permutation":  {e[1], e[0], e[2]},
		"other digest": {e[0], {Pos: e[1].Pos, Digest: da}, e[2]},
	} {
		m := &types.EchoMsg{Entries: list, Voter: byz, Sig: good.Sig}
		node.step(msgIn(byz, m))
		if node.Verifier()(byz, m) || node.rbc.Rounds() != 0 {
			t.Fatalf("a %d-entry signature verified for its %s", len(e), name)
		}
	}
	if !node.Verifier()(byz, good) || !good.PreVerified() {
		t.Fatal("the genuine frame fails the verifier")
	}
	// A frame signed by someone else than its sender counts for neither.
	node.step(msgIn(1, good))
	if node.rbc.Rounds() != 0 {
		t.Fatal("a frame relayed under another sender's name was counted")
	}
	node.step(msgIn(byz, good))
	if counted(node, at(0, 1), da) != 1 || counted(node, at(0, 2), db) != 1 || counted(node, at(1, 1), da) != 1 {
		t.Fatal("the genuine frame's entries were not all counted")
	}
}

// TestEchoLeavesBeforeLaterFrames: an echo queued before a proposal in the
// same drain is on the wire before it, as it was when each echo left at once,
// and one queued after it leaves behind it.
func TestEchoLeavesBeforeLaterFrames(t *testing.T) {
	const n = 4
	keys := testKeys(n)
	c, node := oneNode(t, n, 0, topt{})
	node.Start() // proposes round 0
	self := c.take(0)
	c.deliver(self...) // an endpoint delivers a broadcast to its sender too
	own := self[0].m.(*types.ValMsg).Vertex
	entries := []types.EchoEntry{{Pos: own.Pos(), Digest: own.DigestCached()}}
	refs := []types.VertexRef{own.Ref()}
	for src := types.NodeID(1); src < n; src++ {
		v, val := round0(keys, src)
		node.step(msgIn(src, val))
		entries = append(entries, types.EchoEntry{Pos: v.Pos(), Digest: v.DigestCached()})
		refs = append(refs, v.Ref())
	}
	wire := c.take(1) // what node 1 hears, in order
	if len(wire) != 1 {
		t.Fatalf("%d frames left before the drain ended, want the echoes held", len(wire)-1)
	}
	// The others' echoes deliver all of round 0, so the anchor hold has
	// nothing to wait for and the node proposes round 1 in the same drain;
	// the others' round-1 VALs follow, and nothing holds their echoes past
	// the drain's end.
	for voter := types.NodeID(1); voter < n; voter++ {
		var es []types.EchoEntry
		for _, e := range entries {
			if e.Pos.Source != voter {
				es = append(es, e)
			}
		}
		node.step(msgIn(voter, signedEchoes(&keys[voter], voter, es...)))
	}
	for src := types.NodeID(1); src < n; src++ {
		v := &types.Vertex{Round: 1, Source: src, CreatedAt: 1 + int64(src), StrongEdges: refs}
		node.step(msgIn(src, &types.ValMsg{Vertex: v, Sig: crypto.Sign(&keys[src], vertexCtx(new(ctxBuf), v.DigestCached()))}))
	}
	c.drainEnd(0)
	if wire = append(wire, c.take(1)...); len(wire) != 4 {
		t.Fatalf("%d frames on the wire, want VAL(0), ECHO, VAL(1), ECHO", len(wire))
	}
	first, ok1 := wire[1].m.(*types.EchoMsg)
	prop, ok2 := wire[2].m.(*types.ValMsg)
	last, ok3 := wire[3].m.(*types.EchoMsg)
	if !ok1 || !ok2 || !ok3 || prop.Vertex.Round != 1 {
		t.Fatalf("wire order %T %T %T, want ECHO, the round-1 VAL, ECHO", wire[1].m, wire[2].m, wire[3].m)
	}
	if fmt.Sprint(first.Entries) != fmt.Sprint(entries[1:]) || len(last.Entries) != n-1 || last.Entries[0].Pos.Round != 1 {
		t.Fatalf("echoes before the proposal %v, after it %v", first.Entries, last.Entries)
	}
}
