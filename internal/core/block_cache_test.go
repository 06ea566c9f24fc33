package core

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/faults"
	"clanbft/internal/types"
)

// The block cache keeps a block until this party has executed it and every
// other member of the block's clan has said, with a vertex, that it holds it
// (stage_rbc.go, cachedBlock); the GC horizon bounds whatever that rule leaves.
// These tests pin the rule's liveness without a store, its bound, what a
// Byzantine member can and cannot do to it, and the three ways a block used
// to stay reachable regardless.

// cachedAt reports whether node caches the block of the vertex at pos.
func cachedAt(node *Node, pos types.Position) bool {
	for _, e := range node.rbc.blocks {
		if e.blk.Round == pos.Round && e.blk.Source == pos.Source {
			return true
		}
	}
	return false
}

// execDigests folds node i's executed sequence — positions and payload, in
// order — into one running hash per prefix: what a state root is a function of.
func (c *tcluster) execDigests(i types.NodeID) []types.Hash {
	h := sha256.New()
	out := make([]types.Hash, 0, len(c.orders[i]))
	for _, cv := range c.orders[i] {
		fmt.Fprintf(h, "%d/%d;", cv.Vertex.Round, cv.Vertex.Source)
		if cv.Block != nil {
			for _, tx := range cv.Block.Txs {
				h.Write(tx)
			}
		}
		var d types.Hash
		h.Sum(d[:0])
		out = append(out, d)
	}
	return out
}

// TestBlockCacheMemoryOnlyLiveness: no node has a store. Clan member 3 loses
// the VAL of one vertex, gets the vertex from a party outside the clan (so,
// without the block), delivers and references it — listing it in Lacks — and
// only later is allowed to pull the block. Every holder must still have it
// then, however long ago it executed it and whatever else it evicted; member
// 3 executes the same sequence as the rest; and its next vertex takes the
// exception back, after which the holders let go. A build that reads a bare
// edge as "I hold it" evicts at the listing vertex and strands member 3.
//
// The lost vertex is the primary's of round 6 and member 3 is round 7's
// primary: it can neither leave round 6 without the vertex nor be left behind,
// so it references the vertex one round trip after pulling it from node 0,
// the first party its pull rotation asks and the one outside the clan.
func TestBlockCacheMemoryOnlyLiveness(t *testing.T) {
	const n, m = 4, types.NodeID(3)
	lost := types.Position{Round: 6, Source: 2}
	holders := []types.NodeID{1, 2}
	fnet := faults.NewNet(n, 1, nil)
	holdBlock := true
	toM := func(msg types.Message) bool {
		switch x := msg.(type) {
		case *types.ValMsg:
			return x.Vertex.Pos() == lost
		case *types.VtxRspMsg: // a holder's reply carries the block
			return holdBlock && x.Vertex.Pos() == lost
		}
		return false
	}
	for _, from := range holders {
		fnet.Apply(0, faults.Event{Kind: faults.KindDrop, From: from, To: m, P: 1, Match: toM})
	}
	c := newTCluster(t, n, topt{mode: ModeSingleClan, clans: [][]types.NodeID{{1, 2, 3}}, uniform: true, fnet: fnet})
	// edgeTo finds member 3's vertex with an edge to lost that is (listed) or
	// is not (!listed) in its Lacks.
	edgeTo := func(listed bool) *types.Vertex {
		for r := lost.Round + 1; r <= c.nodes[m].Round(); r++ {
			v, ok := c.nodes[m].dag.Get(types.Position{Round: r, Source: m})
			for i := 0; ok && i < v.NumEdges(); i++ {
				if v.Edge(i).Pos() != lost {
					continue
				}
				in := false
				for _, l := range v.Lacks {
					in = in || int(l) == i
				}
				if in == listed {
					return v
				}
			}
		}
		return nil
	}
	runUntil := func(what string, done func() bool) {
		t.Helper()
		for step := 0; !done(); step++ {
			if step > 800 {
				t.Fatalf("never happened: %s", what)
			}
			c.run(25 * time.Millisecond)
		}
	}

	runUntil("member 3 references the vertex whose block it lacks", func() bool { return edgeTo(true) != nil })
	c.run(3 * time.Second) // some twenty rounds with the block still held back
	for _, h := range holders {
		node := c.nodes[h]
		if in := node.rbc.Get(lost); in == nil || !in.X.emitted {
			t.Fatalf("holder %d has not executed %v", h, lost)
		}
		if !cachedAt(node, lost) {
			t.Fatalf("holder %d evicted %v although member 3 listed it as lacking", h, lost)
		}
		if other := (types.Position{Round: lost.Round, Source: 1}); cachedAt(node, other) {
			t.Fatalf("holder %d still caches %v, which every member attested", h, other)
		}
	}
	for _, cv := range c.orders[m] {
		if cv.Vertex.Pos() == lost {
			t.Fatal("member 3 executed a block it never received")
		}
	}
	if !cachedAt(c.nodes[m], types.Position{Round: lost.Round + 2, Source: 1}) {
		t.Fatal("member 3 let go of a block it has yet to execute")
	}
	behind := len(c.orders[1])

	holdBlock = false
	runUntil("member 3 catches up once it can pull the block", func() bool { return len(c.orders[m]) >= behind+4*n })
	c.checkConsistentOrder(nil)
	ref, got := c.execDigests(1), c.execDigests(m)
	if k := min(len(ref), len(got)); k < behind || ref[k-1] != got[k-1] {
		t.Fatalf("member 3 and member 1 executed different sequences (common length %d, want >= %d)", k, behind)
	}
	for _, cv := range c.orders[m] {
		if !cv.Vertex.BlockDigest.IsZero() && cv.Block == nil {
			t.Fatalf("member 3 executed %v without its block", cv.Vertex.Pos())
		}
	}

	runUntil("the holders evict after member 3's next vertex", func() bool {
		return !cachedAt(c.nodes[1], lost) && !cachedAt(c.nodes[2], lost)
	})
	if edgeTo(false) == nil {
		t.Fatal("holders evicted without an unlisted edge from member 3")
	}
	for _, h := range holders {
		if c.nodes[h].dag.MinRound() > lost.Round || c.nodes[h].mBlocksExpired.Load() != 0 {
			t.Fatalf("holder %d dropped %v at the horizon, not on the attestation", h, lost)
		}
	}
}

// TestBlockCacheBound: 300 rounds of real blocks. With every member up a
// holder never caches more than four rounds' worth and nothing waits for the
// horizon; with one member of the clan down nothing is evicted early and the
// cache is exactly what the horizon alone leaves — everything accepted that
// the horizon has not swept, which is what it held before eviction existed.
func TestBlockCacheBound(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation (hundreds of rounds)")
	}
	for _, tc := range []struct {
		name string
		n    int
		o    topt
		clan []types.NodeID
	}{
		{"single-clan", 5, topt{mode: ModeSingleClan, clans: [][]types.NodeID{{0, 1, 2}}}, []types.NodeID{0, 1, 2}},
		{"baseline", 4, topt{mode: ModeBaseline}, []types.NodeID{0, 1, 2, 3}},
	} {
		for _, down := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/member-down=%v", tc.name, down), func(t *testing.T) {
				o := tc.o
				o.uniform, o.txCount = true, 2
				live := tc.clan
				if down {
					last := tc.clan[len(tc.clan)-1]
					o.mute, live = map[types.NodeID]bool{last: true}, tc.clan[:len(tc.clan)-1]
				}
				c := newTCluster(t, tc.n, o)
				most := 0
				for c.nodes[0].Round() < 300 {
					if c.net.Now() > 10*time.Minute {
						t.Fatalf("round %d after %v", c.nodes[0].Round(), c.net.Now())
					}
					c.run(20 * time.Millisecond)
					for _, id := range live {
						node := c.nodes[id]
						k := len(node.rbc.blocks)
						most = max(most, k)
						evicted, expired := int(node.mBlocksEvicted.Load()), int(node.mBlocksExpired.Load())
						if accepted := node.MetricsSnapshot().BlocksProposed + node.MetricsSnapshot().BlocksReceived; k != accepted-evicted-expired {
							t.Fatalf("node %d caches %d blocks: accepted %d, evicted %d, expired %d", id, k, accepted, evicted, expired)
						}
						if !down {
							if k > 4*len(tc.clan) || expired != 0 {
								t.Fatalf("node %d at round %d caches %d blocks (%d proposers), %d expired", id, node.Round(), k, len(tc.clan), expired)
							}
							continue
						}
						if evicted != 0 {
							t.Fatalf("node %d evicted %d blocks with a clan member silent", id, evicted)
						}
						for _, e := range node.rbc.blocks {
							if e.blk.Round < node.dag.MinRound() {
								t.Fatalf("node %d caches %d/%d below its horizon %d", id, e.blk.Round, e.blk.Source, node.dag.MinRound())
							}
						}
					}
				}
				t.Logf("largest cache over 300 rounds: %d blocks, %d proposers", most, len(live))
				if down && c.nodes[0].mBlocksExpired.Load() == 0 {
					t.Fatal("the horizon never swept the cache")
				}
				bytes := 0
				for _, e := range c.nodes[0].rbc.blocks {
					bytes += e.blk.PayloadBytes()
				}
				snap := c.nodes[0].PipelineSnapshot()
				if snap.Gauge("rbc.block_bytes_cached") != int64(bytes) || snap.Gauge("rbc.blocks_cached") != int64(len(c.nodes[0].rbc.blocks)) ||
					snap.Counter("rbc.blocks_evicted") != c.nodes[0].mBlocksEvicted.Load() || snap.Counter("rbc.blocks_expired") != c.nodes[0].mBlocksExpired.Load() {
					t.Fatalf("registry reads %d blocks, %d bytes cached; the cache holds %d, %d", snap.Gauge("rbc.blocks_cached"),
						snap.Gauge("rbc.block_bytes_cached"), len(c.nodes[0].rbc.blocks), bytes)
				}
			})
		}
	}
}

// TestBlockCacheAdversary: a member can keep a block in its clan's caches
// until the horizon — by never referencing, or by listing everything — and
// that is all it can do. Nobody speaks for anybody else, nobody outside the
// clan is heard, a member heard twice counts once, none of it grows any
// state, and a list that points outside the vertex's edges gets the vertex
// rejected (at decode, and by validateVertex for transports that do not
// decode).
func TestBlockCacheAdversary(t *testing.T) {
	// Node 0 of a clan {0, 1, 2} among four holds and has executed the block
	// of vertex (5, 1): member 2's word is all that is missing.
	_, node := oneNode(t, 4, 0, topt{mode: ModeSingleClan, clans: [][]types.NodeID{{0, 1, 2}}})
	blk := &types.Block{Round: 5, Source: 1, Txs: [][]byte{[]byte("payload")}}
	pv := &types.Vertex{Round: 5, Source: 1, BlockDigest: blk.DigestCached()}
	for src := types.NodeID(0); src < 4; src++ {
		v := &types.Vertex{Round: 5, Source: src}
		if src == 1 {
			v = pv
		}
		if err := node.dag.Insert(v); err != nil {
			t.Fatal(err)
		}
		node.inst(v.Pos()).Val(v)
	}
	node.cacheBlock(pv.BlockDigest, blk)
	pos := pv.Pos()
	node.blockEmitted(pv)
	if !cachedAt(node, pos) {
		t.Fatal("evicted before member 2 said anything")
	}
	// child builds src's round-6 vertex over all of round 5, its Lacks as
	// given.
	child := func(src types.NodeID, lacks ...uint32) *types.Vertex {
		v := &types.Vertex{Round: 6, Source: src, Lacks: lacks}
		for s := types.NodeID(0); s < 4; s++ {
			v.StrongEdges = append(v.StrongEdges, types.VertexRef{Round: 5, Source: s})
		}
		return v
	}

	slab := node.rbc.heldBits.Left()
	silent := child(2)
	silent.StrongEdges = append(silent.StrongEdges[:1:1], silent.StrongEdges[2:]...) // no edge to (5, 1)
	for name, v := range map[string]*types.Vertex{
		"member 2 lists the block":          child(2, 1),
		"member 2 lists everything":         child(2, 0, 1, 2, 3),
		"member 2 does not reference":       silent,
		"the proposer, heard already":       child(1),
		"the proposer again, a round later": {Round: 8, Source: 1, WeakEdges: []types.VertexRef{{Round: 5, Source: 1}}},
		"a party outside the clan":          child(3),
		"this party itself":                 child(0),
	} {
		node.noteHeld(v)
		if !cachedAt(node, pos) {
			t.Fatalf("%s: block evicted", name)
		}
	}
	if len(node.rbc.blocks) != 1 || node.rbc.heldBits.Left() != slab || len(node.rbc.owed) != 0 || node.mBlocksEvicted.Load() != 0 {
		t.Fatalf("state moved: %d entries, slab %d -> %d, %d owed", len(node.rbc.blocks), slab, node.rbc.heldBits.Left(), len(node.rbc.owed))
	}

	good, bad := child(2), child(2, 4)
	if !node.validateVertex(good, true) {
		t.Fatal("fixture vertex does not validate")
	}
	if node.validateVertex(bad, true) {
		t.Fatal("a vertex listing a position outside its edges validated")
	}
	if _, err := types.UnmarshalVertex(bad.Marshal(nil)); err == nil {
		t.Fatal("a vertex listing a position outside its edges decoded")
	}

	node.noteHeld(good)
	if cachedAt(node, pos) || node.mBlocksEvicted.Load() != 1 || node.rbc.blockBytes != 0 {
		t.Fatalf("not evicted once the whole clan holds it: %d evicted, %d bytes", node.mBlocksEvicted.Load(), node.rbc.blockBytes)
	}
}

// TestBlockCacheNotRefilled: once a block has been executed and evicted,
// nothing that still carries it — a duplicate VAL, a late pull reply for the
// delivered vertex — puts it back; and on links that duplicate every frame
// the cache stays within the bound it has without them.
func TestBlockCacheNotRefilled(t *testing.T) {
	const n = 4
	fnet := faults.NewNet(n, 3, nil)
	fnet.Apply(0, faults.Event{Kind: faults.KindDup, From: faults.All, To: faults.All, P: 1})
	// Keep one of every payload-bearing frame addressed to node 0.
	vals, rsps := map[types.Position]*types.ValMsg{}, map[types.Position]*types.VtxRspMsg{}
	fnet.SetTap(func(_, to types.NodeID, m types.Message) {
		if v, ok := m.(*types.ValMsg); ok && to == 0 && v.Block != nil {
			vals[v.Vertex.Pos()] = v
		}
	})
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, fnet: fnet})
	for c.nodes[0].Round() < 40 {
		c.run(20 * time.Millisecond)
		for _, node := range c.nodes {
			if k := len(node.rbc.blocks); k > 4*n {
				t.Fatalf("node %d caches %d blocks on duplicating links", node.cfg.Self, k)
			}
		}
	}
	node := c.nodes[0]
	for pos, val := range vals {
		if in := node.rbc.Get(pos); in != nil && in.X.emitted && !cachedAt(node, pos) {
			rsps[pos] = &types.VtxRspMsg{Vertex: val.Vertex, Cert: in.CertMsg(pos), Block: val.Block}
		}
	}
	if len(rsps) < 10 {
		t.Fatalf("only %d evicted blocks to replay", len(rsps))
	}
	before, received := len(node.rbc.blocks), node.MetricsSnapshot().BlocksReceived
	for pos, rsp := range rsps {
		node.step(msgIn(pos.Source, vals[pos]))
		node.step(msgIn(pos.Source, rsp))
	}
	if len(node.rbc.blocks) != before || node.MetricsSnapshot().BlocksReceived != received {
		t.Fatalf("replayed frames refilled the cache: %d -> %d blocks", before, len(node.rbc.blocks))
	}
}

// TestVtxReqBlockInsideTheClanOnly: a pull reply carries the vertex and its
// certificate to anyone, and the block only to a member of the block's clan —
// also after the responder evicted the block, when it has a store.
func TestVtxReqBlockInsideTheClanOnly(t *testing.T) {
	const n = 4
	for _, withStore := range []bool{false, true} {
		fnet := faults.NewNet(n, 1, nil)
		var sent []*types.VtxRspMsg
		fnet.SetTap(func(_, to types.NodeID, m types.Message) {
			if rsp, ok := m.(*types.VtxRspMsg); ok {
				sent = append(sent, rsp)
			}
		})
		c := newTCluster(t, n, topt{mode: ModeSingleClan, clans: [][]types.NodeID{{0, 1, 2}}, uniform: true, fnet: fnet, store: withStore})
		c.run(4 * time.Second)
		node := c.nodes[0]
		var cached, evicted *types.Vertex
		for _, cv := range c.orders[0] {
			switch v := cv.Vertex; {
			case cv.Block == nil || v.Source == 0:
			case cachedAt(node, v.Pos()):
				cached = v
			default:
				evicted = v
			}
		}
		if cached == nil || evicted == nil {
			t.Fatalf("store=%v: need a cached and an evicted block (%v, %v)", withStore, cached, evicted)
		}
		// ask returns the one reply to from's pull of pos; Have at pos's
		// round keeps ancestors out of it.
		ask := func(from types.NodeID, pos types.Position) *types.VtxRspMsg {
			t.Helper()
			sent = sent[:0]
			node.step(msgIn(from, &types.VtxReqMsg{Pos: pos, Have: pos.Round}))
			if len(sent) != 1 || sent[0].Vertex.Pos() != pos || sent[0].Cert == nil {
				t.Fatalf("store=%v: %d replies to a pull of %v, want its vertex and certificate", withStore, len(sent), pos)
			}
			return sent[0]
		}
		if ask(3, cached.Pos()).Block != nil {
			t.Fatalf("store=%v: a party outside the clan got the block", withStore)
		}
		if blk := ask(1, cached.Pos()).Block; blk == nil || blk.DigestCached() != cached.BlockDigest {
			t.Fatalf("store=%v: a clan member did not get the block", withStore)
		}
		if ask(3, evicted.Pos()).Block != nil {
			t.Fatalf("store=%v: a party outside the clan got an evicted block", withStore)
		}
		if blk := ask(1, evicted.Pos()).Block; (blk != nil) != withStore {
			t.Fatalf("store=%v: a clan member got block %v for an evicted block", withStore, blk)
		}
		if cachedAt(node, evicted.Pos()) {
			t.Fatalf("store=%v: serving an evicted block cached it again", withStore)
		}
		sent = sent[:0]
		node.step(msgIn(1, &types.VtxReqMsg{Pos: types.Position{Round: cached.Round, Source: 60000}}))
		if len(sent) != 0 {
			t.Fatalf("store=%v: a pull naming no party got %d replies", withStore, len(sent))
		}
	}
}

// TestAncestorBatchAllocs: a pull reply's ancestor walk runs in the node's
// scratch, so one batch allocates at most the frames it sends.
func TestAncestorBatchAllocs(t *testing.T) {
	c := newTCluster(t, 4, topt{mode: ModeBaseline, uniform: true})
	c.run(4 * time.Second)
	node := c.nodes[0]
	ep := &wireEndpoint{self: 0, n: 4} // counts and discards
	node.ep = ep
	top, ok := node.dag.Get(types.Position{Round: node.dag.MaxRound() - 1, Source: 1})
	if !ok {
		t.Fatal("no vertex to walk from")
	}
	node.sendAncestorBatch(3, top, 0) // the scratch reaches its size
	ep.frames = 0
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() { node.sendAncestorBatch(3, top, 0) })
	frames := float64(ep.frames) / (runs + 1) // AllocsPerRun warms up with one more
	t.Logf("one batch: %.0f frames, %.0f allocations", frames, allocs)
	if frames != catchupBatchMax || allocs > frames {
		t.Fatalf("one batch of %.0f frames (want %d) allocates %.0f", frames, catchupBatchMax, allocs)
	}
}

// TestBlockCacheUnpinsDecodedVal: the decoder puts a VAL and its vertex in one
// allocation, and the vertex lives on in the DAG. After the handler has taken
// the block and the cache has evicted it, the payload must be garbage: the
// message's field is clear, and a finalizer on the block runs while the
// vertex is still held.
func TestBlockCacheUnpinsDecodedVal(t *testing.T) {
	keys := testKeys(4)
	// A clan of two: the proposer is the only other member, so executing the
	// block is all that eviction waits for.
	_, node := oneNode(t, 4, 0, topt{mode: ModeSingleClan, clans: [][]types.NodeID{{0, 1}}})
	blk := &types.Block{Round: 0, Source: 1, Txs: [][]byte{make([]byte, 1<<16)}}
	v := &types.Vertex{Round: 0, Source: 1, BlockDigest: blk.DigestCached(), CreatedAt: 1}
	wire := types.Encode(&types.ValMsg{Vertex: v, Block: blk,
		Sig: crypto.Sign(&keys[1], vertexCtx(new(ctxBuf), v.DigestCached()))}, nil)
	m, err := types.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	val := m.(*types.ValMsg)
	freed := make(chan struct{})
	runtime.SetFinalizer(val.Block, func(*types.Block) { close(freed) })
	node.step(msgIn(1, val))
	if val.Block != nil {
		t.Fatal("the handled message still references its block")
	}
	in := node.rbc.Get(v.Pos())
	if in == nil || in.Vertex() != val.Vertex || !cachedAt(node, v.Pos()) {
		t.Fatal("vertex or block not taken in")
	}
	node.blockEmitted(in.Vertex())
	if cachedAt(node, v.Pos()) {
		t.Fatal("block not evicted")
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(node)
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the payload is still reachable with the vertex held")
		}
	}
}

// TestBlockCacheSharedValUntouched: the simulator hands one ValMsg to every
// receiver, so no receiver may write to it: with three clan members
// receiving each proposal, all of them still get every block.
func TestBlockCacheSharedValUntouched(t *testing.T) {
	const n, want = 4, 40
	c := newTCluster(t, n, topt{uniform: true, delta: time.Millisecond, txCount: 2})
	withBlock := func(i int) (k int) {
		for _, cv := range c.orders[i] {
			if cv.Vertex.BlockDigest.IsZero() {
				continue
			}
			if cv.Block == nil || cv.Block.DigestCached() != cv.Vertex.BlockDigest {
				t.Fatalf("node %d executed %v without its block", i, cv.Vertex.Pos())
			}
			k++
		}
		return k
	}
	for deadline := time.Now().Add(30 * time.Second); ; c.run(10 * time.Millisecond) {
		var got []int
		done := true
		for i := range c.nodes {
			got = append(got, withBlock(i))
			done = done && got[i] >= want
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocks executed per node: %v, want %d each", got, want)
		}
	}
}
