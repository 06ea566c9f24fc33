package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/transport"
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

// recEndpoint records every frame its node hands to the wire, one entry per
// call, and holds the drain hook for the test to fire.
type recEndpoint struct {
	nullEndpoint
	out     []types.Message
	drained func()
}

func (e *recEndpoint) Send(_ types.NodeID, m types.Message)        { e.out = append(e.out, m) }
func (e *recEndpoint) Multicast(_ []types.NodeID, m types.Message) { e.out = append(e.out, m) }
func (e *recEndpoint) Broadcast(m types.Message)                   { e.out = append(e.out, m) }
func (e *recEndpoint) SetDrainHook(fn func()) bool                 { e.drained = fn; return true }

// echoFrames returns the ECHO frames among the recorded ones.
func (e *recEndpoint) echoFrames() (fs []*types.EchoMsg) {
	for _, m := range e.out {
		if f, ok := m.(*types.EchoMsg); ok {
			fs = append(fs, f)
		}
	}
	return fs
}

// signCost is an EdSign charge no other operation is configured with, so a
// clock can count signatures.
const signCost = 7 * time.Nanosecond

// signClock counts EdSign charges on top of another clock.
type signClock struct {
	transport.Clock
	signs int // guarded by the node's lock, like every Charge call
}

func (c *signClock) Charge(d time.Duration) {
	if d == signCost {
		c.signs++
	}
}

// handNode is a node driven by hand: messages go straight into handle.
func handNode(keys []crypto.KeyPair, reg *crypto.Registry, self types.NodeID, ep transport.Endpoint) *Node {
	return New(Config{Self: self, N: len(keys), Mode: ModeBaseline, Key: &keys[self], Reg: reg, AnchorWait: -1},
		ep, frozenClock{})
}

// TestEchoFramingEquivalence: the same echoes, in the same order, applied as
// one-entry frames, as one frame per voter, or in a random split between the
// two leave identical tallies, identical certificates (the aggregate byte for
// byte) and the same delivery order.
func TestEchoFramingEquivalence(t *testing.T) {
	const n = 7
	keys := crypto.GenerateKeys(n, 5)
	reg := crypto.NewRegistry(keys, true)
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
		node := handNode(keys, reg, 0, nullEndpoint{})
		for _, val := range vals {
			node.handle(val.Vertex.Source, val)
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
					node.handle(voter, signedEchoes(&keys[voter], voter, mine[from:to]...))
					from = to
				}
			}
		}
		o := outcome{aggs: map[types.Position]types.AggSig{}, totals: map[types.Position]int{}}
		for _, v := range node.deliveredIn(0) {
			o.delivered = append(o.delivered, v.Pos())
		}
		for _, e := range all {
			in := node.instIfAny(e.Pos)
			if in == nil || in.certAgg.Bitmap == nil {
				t.Fatalf("%v not certified", e.Pos)
			}
			o.aggs[e.Pos], o.totals[e.Pos] = in.certAgg, in.first.total
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

// drainNode is node 0 of an n-party ChanNet: the only engine, with a sign
// counter on its clock; the other endpoints just record what reaches them.
type drainNode struct {
	t     *testing.T
	net   *transport.ChanNet
	keys  []crypto.KeyPair
	reg   *crypto.Registry
	node  *Node
	clk   *signClock
	mu    sync.Mutex
	heard [][]types.Message // per peer, in arrival order
}

func newDrainNode(t *testing.T, n int) *drainNode { return newDrainNodeWait(t, n, -1) }

// newDrainNodeWait is newDrainNode with the given AnchorWait.
func newDrainNodeWait(t *testing.T, n int, wait time.Duration) *drainNode {
	d := &drainNode{t: t, net: transport.NewChanNet(n, 0), keys: crypto.GenerateKeys(n, 9), heard: make([][]types.Message, n)}
	t.Cleanup(d.net.Close)
	d.reg = crypto.NewRegistry(d.keys, true)
	for i := 1; i < n; i++ {
		i := i
		d.net.Endpoint(types.NodeID(i)).SetHandler(func(_ types.NodeID, m types.Message) {
			d.mu.Lock()
			d.heard[i] = append(d.heard[i], m)
			d.mu.Unlock()
		})
	}
	d.clk = &signClock{Clock: d.net.Clock(0)}
	d.node = New(Config{Self: 0, N: n, Mode: ModeBaseline, Key: &d.keys[0], Reg: d.reg, AnchorWait: wait,
		RoundTimeout: time.Hour, Costs: crypto.Costs{EdSign: signCost}}, d.net.Endpoint(0), d.clk)
	d.node.Start()
	t.Cleanup(d.node.Stop)
	d.settle()
	return d
}

// hold parks the node's mailbox loop inside a task until the returned
// function is called: what arrives meanwhile is taken in one swap, one drain.
func (d *drainNode) hold() (release func()) {
	running, gate := make(chan struct{}), make(chan struct{})
	d.net.Clock(0).After(0, func() { close(running); <-gate })
	<-running
	return func() { close(gate) }
}

// settle returns once everything pushed to the node's mailbox so far has run
// and the drain it ran in has ended: the second marker runs in a later batch
// than the first, so the first's drain hook has returned.
func (d *drainNode) settle() {
	for i := 0; i < 2; i++ {
		ran := make(chan struct{})
		d.net.Clock(0).After(0, func() { close(ran) })
		select {
		case <-ran:
		case <-time.After(10 * time.Second):
			d.t.Fatal("mailbox did not drain")
		}
	}
}

// queued waits until the node's mailbox holds k tasks.
func (d *drainNode) queued(k uint64) {
	for deadline := time.Now().Add(10 * time.Second); d.net.Endpoint(0).Stats().HandlerQueue < k; {
		if time.Now().After(deadline) {
			d.t.Fatalf("mailbox depth %d, want %d", d.net.Endpoint(0).Stats().HandlerQueue, k)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *drainNode) sent() uint64 { return d.net.Endpoint(0).Stats().MsgsSent }

func (d *drainNode) signs() int {
	d.node.mu.Lock()
	defer d.node.mu.Unlock()
	return d.clk.signs
}

// echoesAt returns the ECHO frames peer has heard, once it has heard want.
func (d *drainNode) echoesAt(peer, want int) []*types.EchoMsg {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var fs []*types.EchoMsg
		d.mu.Lock()
		for _, m := range d.heard[peer] {
			if f, ok := m.(*types.EchoMsg); ok {
				fs = append(fs, f)
			}
		}
		d.mu.Unlock()
		if len(fs) >= want || time.Now().After(deadline) {
			if len(fs) != want {
				d.t.Fatalf("peer %d heard %d ECHO frames, want %d", peer, len(fs), want)
			}
			return fs
		}
	}
}

// TestOneEchoFramePerDrain: n-1 VALs inside one mailbox drain cost one ECHO
// frame per peer and one signature; a drain apart they cost n-1 frames, each
// the single-position frame the protocol used to send — same length, same
// signed context.
func TestOneEchoFramePerDrain(t *testing.T) {
	const n = 4
	t.Run("one drain", func(t *testing.T) {
		d := newDrainNode(t, n)
		sent, signs := d.sent(), d.signs()
		release := d.hold()
		for src := types.NodeID(1); src < n; src++ {
			_, val := round0(d.keys, src)
			d.net.Endpoint(src).Send(0, val)
		}
		d.queued(n) // the holding task and n-1 VALs
		release()
		d.settle()
		if got := d.sent() - sent; got != n-1 {
			t.Fatalf("%d frames left for %d VALs in one drain, want one ECHO frame to each of %d peers", got, n-1, n-1)
		}
		if got := d.signs() - signs; got != 1 {
			t.Fatalf("signed %d times in one drain, want 1", got)
		}
		var first *types.EchoMsg
		for peer := 1; peer < n; peer++ {
			f := d.echoesAt(peer, 1)[0]
			if first == nil {
				first = f
			}
			if f != first || len(f.Entries) != n-1 {
				t.Fatalf("peer %d got a frame of %d entries (the same as peer 1's: %v), want the one frame of %d", peer, len(f.Entries), f == first, n-1)
			}
		}
		if !d.reg.Verify(0, echoFrameCtx(new(echoFrameBuf), first.Entries), first.Sig) {
			t.Fatal("the frame's signature does not cover its entries")
		}
		for i, e := range first.Entries {
			if v, _ := round0(d.keys, types.NodeID(i+1)); e.Pos != v.Pos() || e.Digest != v.DigestCached() {
				t.Fatalf("entry %d is %v, want the echo of %v in arrival order", i, e.Pos, v.Pos())
			}
		}
	})
	t.Run("a drain apart", func(t *testing.T) {
		d := newDrainNode(t, n)
		sent, signs := d.sent(), d.signs()
		for src := types.NodeID(1); src < n; src++ {
			_, val := round0(d.keys, src)
			d.net.Endpoint(src).Send(0, val)
			d.settle()
		}
		if got := d.sent() - sent; got != (n-1)*(n-1) {
			t.Fatalf("%d frames left, want %d one-entry ECHO frames to each of %d peers", got, n-1, n-1)
		}
		if got := d.signs() - signs; got != n-1 {
			t.Fatalf("signed %d times, want %d", got, n-1)
		}
		for i, f := range d.echoesAt(1, n-1) {
			v, _ := round0(d.keys, types.NodeID(i+1))
			dg := v.DigestCached()
			// The single-position frame: round, source, digest, voter,
			// signature; signed over 'E', round, source, digest.
			wire := binary.AppendUvarint(binary.AppendUvarint(nil, 0), uint64(v.Source))
			wire = append(binary.AppendUvarint(append(wire, dg[:]...), 0), f.Sig[:]...)
			ctx := append(binary.AppendUvarint(binary.AppendUvarint([]byte{'E'}, 0), uint64(v.Source)), dg[:]...)
			if len(f.Entries) != 1 || !bytes.Equal(f.Marshal(nil), wire) || f.WireSize() != len(wire) {
				t.Fatalf("frame %d is %d entries in %d bytes, want the %d-byte single-position frame", i, len(f.Entries), f.WireSize(), len(wire))
			}
			if !d.reg.Verify(0, ctx, f.Sig) {
				t.Fatalf("frame %d is not signed over the single-position context", i)
			}
		}
	})
}

// TestEchoNotHeldWhileIdle: a queued echo leaves before the mailbox blocks on
// a verify verdict that is not in yet, and a node stopped mid-drain sends
// nothing afterwards.
func TestEchoNotHeldWhileIdle(t *testing.T) {
	const n = 4
	t.Run("stalled verdict", func(t *testing.T) {
		d := newDrainNode(t, n)
		pool := crypto.NewVerifyPool(2, 0)
		defer pool.Close()
		stall := make(chan struct{})
		verify := d.node.Verifier()
		d.net.Endpoint(0).(transport.VerifyingEndpoint).SetVerifier(func(from types.NodeID, m types.Message) bool {
			if from == 2 {
				<-stall
			}
			return verify(from, m)
		}, pool)
		sent := d.sent()
		release := d.hold()
		_, val1 := round0(d.keys, 1)
		_, val2 := round0(d.keys, 2)
		d.net.Endpoint(1).Send(0, val1)
		d.net.Endpoint(2).Send(0, val2)
		d.queued(3)
		release()
		// Node 2's VAL is stuck in the pool; node 1's echo must not wait.
		if f := d.echoesAt(1, 1)[0]; len(f.Entries) != 1 || f.Entries[0].Pos.Source != 1 {
			t.Fatalf("while the next verdict is out, peer 1 heard %+v, want the echo of node 1's vertex", f.Entries)
		}
		if got := d.sent() - sent; got != n-1 {
			t.Fatalf("%d frames left before the stalled verdict, want %d", got, n-1)
		}
		close(stall)
		d.settle()
		if f := d.echoesAt(1, 2)[1]; len(f.Entries) != 1 || f.Entries[0].Pos.Source != 2 {
			t.Fatalf("after the verdict, peer 1 heard %+v, want the echo of node 2's vertex", f.Entries)
		}
	})
	t.Run("stop mid-drain", func(t *testing.T) {
		d := newDrainNode(t, n)
		sent := d.sent()
		release := d.hold()
		_, val := round0(d.keys, 1)
		d.net.Endpoint(1).Send(0, val)
		d.queued(2)
		d.net.Clock(0).After(0, d.node.Stop)
		d.queued(3)
		release()
		d.settle()
		if got := d.sent() - sent; got != 0 {
			t.Fatalf("a node stopped mid-drain sent %d frames afterwards", got)
		}
	})
}

// TestEchoFrameCap: however many echoes one drain produces, no frame carries
// more than n entries, every entry reaches every receiver's tally, and a
// frame with n+1 entries is refused whole without creating instance state.
func TestEchoFrameCap(t *testing.T) {
	const n = 4
	keys := crypto.GenerateKeys(n, 5)
	reg := crypto.NewRegistry(keys, true)
	ep := &recEndpoint{}
	node := handNode(keys, reg, 1, ep)
	node.Start()
	ep.out = nil // the round-0 proposal
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
	ep.drained()
	var got []types.EchoEntry
	receiver := handNode(keys, reg, 0, nullEndpoint{})
	for _, f := range ep.echoFrames() {
		if len(f.Entries) > n || len(f.Entries) == 0 {
			t.Fatalf("a frame of %d entries left, cap is %d", len(f.Entries), n)
		}
		got = append(got, f.Entries...)
		if !node.Verifier()(1, f) {
			t.Fatal("frame fails the verifier")
		}
		receiver.handle(1, f)
	}
	if len(ep.out) != len(ep.echoFrames()) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%d echoes queued, %d left in %d frames (%d ECHO), or out of order", len(want), len(got), len(ep.out), len(ep.echoFrames()))
	}
	for _, e := range want {
		in := receiver.instIfAny(e.Pos)
		if in == nil || !types.BitmapHas(in.echoVoted, 1) || in.tallyOf(e.Digest) == nil {
			t.Fatalf("the receiver did not count the echo for %v", e.Pos)
		}
	}

	long := signedEchoes(&keys[1], 1, append(want[:n:n], types.EchoEntry{Pos: types.Position{Round: 9, Source: 0}})...)
	fresh := handNode(keys, reg, 0, nullEndpoint{})
	fresh.handle(1, long)
	if len(fresh.rbc.insts) != 0 {
		t.Fatalf("a frame of %d entries created state in %d rounds", len(long.Entries), len(fresh.rbc.insts))
	}
	if fresh.Verifier()(1, long) {
		t.Fatal("the verifier passed a frame longer than the handler accepts")
	}
	fresh.handle(1, signedEchoes(&keys[1], 1, long.Entries[:n]...))
	if fresh.instIfAny(want[0].Pos) == nil {
		t.Fatal("a frame of exactly n entries was refused")
	}
}

// TestEchoFrameByzantineVoter: what a voter can put in a frame, and what it
// gets for it — one counted echo per position at most, bad entries skipped
// without taking their neighbours along, nothing at all for a bad signature,
// and no second reading of a signature it made.
func TestEchoFrameByzantineVoter(t *testing.T) {
	const n, byz = 7, 3
	keys := crypto.GenerateKeys(n, 5)
	reg := crypto.NewRegistry(keys, true)
	at := func(r types.Round, src types.NodeID) types.Position { return types.Position{Round: r, Source: src} }
	da, db := types.HashBytes([]byte("a")), types.HashBytes([]byte("b"))
	counted := func(node *Node, pos types.Position, d types.Hash) int {
		in := node.instIfAny(pos)
		if in == nil || in.tallyOf(d) == nil {
			return 0
		}
		return in.tallyOf(d).total
	}

	node := handNode(keys, reg, 0, nullEndpoint{})
	node.handle(byz, signedEchoes(&keys[byz], byz,
		types.EchoEntry{Pos: at(0, 1), Digest: da},
		types.EchoEntry{Pos: at(0, 1), Digest: da}, // the same echo again
		types.EchoEntry{Pos: at(0, 2), Digest: da},
		types.EchoEntry{Pos: at(0, 2), Digest: db}, // a second digest at one position
	))
	if counted(node, at(0, 1), da) != 1 || counted(node, at(0, 2), da) != 1 || counted(node, at(0, 2), db) != 0 {
		t.Fatalf("a frame listing positions twice counted %d, %d and %d echoes, want 1, 1, 0",
			counted(node, at(0, 1), da), counted(node, at(0, 2), da), counted(node, at(0, 2), db))
	}

	// Entries no single-position ECHO would have been counted for are
	// skipped; the ones between them count.
	node = handNode(keys, reg, 0, nullEndpoint{})
	node.mu.Lock()
	node.round = 500 // rounds below the horizon need one
	node.dag.GC(400)
	node.mu.Unlock()
	node.handle(byz, signedEchoes(&keys[byz], byz,
		types.EchoEntry{Pos: at(500, n+3), Digest: da}, // no such source
		types.EchoEntry{Pos: at(500, 1), Digest: da},
		types.EchoEntry{Pos: at(10, 1), Digest: da}, // below the GC horizon
		types.EchoEntry{Pos: at(501, 1), Digest: da},
		types.EchoEntry{Pos: at(1<<40, 1), Digest: da}, // far future
		types.EchoEntry{Pos: at(502, 1), Digest: da},
	))
	for r := types.Round(500); r <= 502; r++ {
		if counted(node, at(r, 1), da) != 1 {
			t.Fatalf("the echo for round %d, between two bad entries, was not counted", r)
		}
	}
	if len(node.rbc.insts) != 3 {
		t.Fatalf("state in %d rounds after three countable entries", len(node.rbc.insts))
	}

	// A non-member source or voter: membership is per epoch.
	node = New(Config{Self: 0, N: n, Mode: ModeBaseline, Key: &keys[0], Reg: reg, Members: []types.NodeID{0, 1, 3, 4, 5}},
		nullEndpoint{}, frozenClock{})
	node.handle(byz, signedEchoes(&keys[byz], byz,
		types.EchoEntry{Pos: at(0, 2), Digest: da}, // node 2 is not a member
		types.EchoEntry{Pos: at(0, 1), Digest: da},
	))
	if node.instIfAny(at(0, 2)) != nil || counted(node, at(0, 1), da) != 1 {
		t.Fatal("an entry for a non-member source was counted, or took its neighbour along")
	}

	// A bad signature: nothing counts, no instance appears, and the pool's
	// verifier rejects the frame.
	node = handNode(keys, reg, 0, nullEndpoint{})
	good := signedEchoes(&keys[byz], byz,
		types.EchoEntry{Pos: at(0, 1), Digest: da}, types.EchoEntry{Pos: at(0, 2), Digest: db}, types.EchoEntry{Pos: at(1, 1), Digest: da})
	forged := *good
	forged.Sig[5] ^= 1
	node.handle(byz, &forged)
	if len(node.rbc.insts) != 0 || node.Verifier()(byz, &forged) {
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
		node.handle(byz, m)
		if node.Verifier()(byz, m) || len(node.rbc.insts) != 0 {
			t.Fatalf("a %d-entry signature verified for its %s", len(e), name)
		}
	}
	if !node.Verifier()(byz, good) || !good.PreVerified() {
		t.Fatal("the genuine frame fails the verifier")
	}
	// A frame signed by someone else than its sender counts for neither.
	node.handle(1, good)
	if len(node.rbc.insts) != 0 {
		t.Fatal("a frame relayed under another sender's name was counted")
	}
	node.handle(byz, good)
	if counted(node, at(0, 1), da) != 1 || counted(node, at(0, 2), db) != 1 || counted(node, at(1, 1), da) != 1 {
		t.Fatal("the genuine frame's entries were not all counted")
	}
}

// TestEchoLeavesBeforeLaterFrames: an echo queued before a proposal in the
// same drain is on the wire before it, as it was when each echo left at once.
func TestEchoLeavesBeforeLaterFrames(t *testing.T) {
	const n = 4
	keys := crypto.GenerateKeys(n, 5)
	reg := crypto.NewRegistry(keys, true)
	ep := &recEndpoint{}
	node := handNode(keys, reg, 0, ep)
	node.Start()              // proposes round 0
	node.handle(0, ep.out[0]) // an endpoint delivers a broadcast to its sender too
	own := ep.out[0].(*types.ValMsg).Vertex
	entries := []types.EchoEntry{{Pos: own.Pos(), Digest: own.DigestCached()}}
	for src := types.NodeID(1); src <= 2; src++ {
		v, val := round0(keys, src)
		node.handle(src, val)
		entries = append(entries, types.EchoEntry{Pos: v.Pos(), Digest: v.DigestCached()})
	}
	if len(ep.out) != 1 {
		t.Fatalf("%d frames left before the drain ended, want the echoes held", len(ep.out)-1)
	}
	// The others' echoes deliver round 0's quorum, and the node proposes
	// round 1 in the same drain.
	node.handle(1, signedEchoes(&keys[1], 1, entries[0], entries[2]))
	node.handle(2, signedEchoes(&keys[2], 2, entries[0], entries[1]))
	node.handle(3, signedEchoes(&keys[3], 3, entries...))
	_, val3 := round0(keys, 3)
	node.handle(3, val3)
	ep.drained()
	if len(ep.out) != 4 {
		t.Fatalf("%d frames on the wire, want VAL(0), ECHO, VAL(1), ECHO", len(ep.out))
	}
	first, ok1 := ep.out[1].(*types.EchoMsg)
	prop, ok2 := ep.out[2].(*types.ValMsg)
	last, ok3 := ep.out[3].(*types.EchoMsg)
	if !ok1 || !ok2 || !ok3 || prop.Vertex.Round != 1 {
		t.Fatalf("wire order %T %T %T, want ECHO, the round-1 VAL, ECHO", ep.out[1], ep.out[2], ep.out[3])
	}
	if len(first.Entries) != 2 || first.Entries[0] != entries[1] || first.Entries[1] != entries[2] ||
		len(last.Entries) != 1 || last.Entries[0].Pos.Source != 3 {
		t.Fatalf("echoes before the proposal %v, after it %v", first.Entries, last.Entries)
	}
}
