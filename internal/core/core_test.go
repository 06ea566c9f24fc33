package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"clanbft/internal/committee"
	"clanbft/internal/crypto"
	"clanbft/internal/faults"
	"clanbft/internal/simnet"
	"clanbft/internal/store"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// testSource produces small real blocks with a fixed number of transactions.
type testSource struct {
	id      types.NodeID
	txCount int
	txSize  int
	seq     int
}

func (s *testSource) NextBlock(r types.Round) *types.Block {
	b := &types.Block{}
	for i := 0; i < s.txCount; i++ {
		tx := make([]byte, s.txSize)
		tx[0] = byte(s.id)
		tx[1] = byte(s.seq)
		tx[2] = byte(i)
		b.Txs = append(b.Txs, tx)
	}
	s.seq++
	return b
}

// testKeys is the key set of an n-party test universe.
func testKeys(n int) []crypto.KeyPair { return crypto.GenerateKeys(n, 21) }

// newNode assembles party cfg.Self of the universe keys describes on ep and
// clk, unstarted: every node a core test runs is built here. It fills in N,
// Key and Reg; a nil reg checks real Ed25519 signatures.
func newNode(keys []crypto.KeyPair, reg *crypto.Registry, cfg Config, ep transport.Endpoint, clk transport.Clock) *Node {
	if reg == nil {
		reg = crypto.NewRegistry(keys, true)
	}
	cfg.N, cfg.Key, cfg.Reg = len(keys), &keys[cfg.Self], reg
	return New(cfg, ep, clk)
}

// tcluster is n nodes on the simulator, or, stepped, on the wire and the
// clock the test moves itself (step_test.go).
type tcluster struct {
	t      testing.TB
	o      topt
	net    *simnet.Net // nil when stepped
	nodes  []*Node
	orders [][]CommittedVertex
	keys   []crypto.KeyPair
	reg    *crypto.Registry
	stores []store.Store
	n      int
	// A stepped cluster's clock and the packets in flight on its wire.
	clk      *stepClock
	inFlight []packet
}

type topt struct {
	mode    Mode
	clans   [][]types.NodeID
	mute    map[types.NodeID]bool // nodes never started (crash faults)
	timeout time.Duration
	leaders int // LeadersPerRound (0: every eligible member an anchor)
	txCount int
	txSize  int           // bytes per transaction (default 64)
	uniform bool          // single-region topology for latency math
	delta   time.Duration // with uniform: the one-way delay (default 50 ms)
	jitter  float64       // with uniform: one-way delays vary by +-jitter (default none)
	seed    int64
	members []types.NodeID // epoch-0 members (nil = all n)
	rdelay  types.Round    // ReconfigDelay override
	rep     bool           // reputation-driven leader schedule
	repWin  types.Round    // ReputationWindow override
	fnet    *faults.Net    // wraps every endpoint (fault rules, message tap)
	store   bool           // every node persists to its own in-memory store, kept across build
	gcDepth int            // GCDepth (0: the default)
	// execCost is wall-clock time Deliver spends on each committed vertex:
	// the application work the exec stage keeps off the handler.
	execCost time.Duration
	// sigs makes and checks real Ed25519 signatures. By default a simulated
	// cluster builds its registry as harness.Run does, crypto.NewRegistry(keys,
	// false): signatures are zero and every check passes, so a test of
	// ordering, liveness or caching checks the same rules without spending
	// most of its wall clock in Ed25519. Costs stay zero, as they always were
	// here, so virtual time is what it was with real signatures. A stepped
	// cluster always checks real ones: its tests sign what they play.
	sigs bool
	// stepped runs the nodes on one wireEndpoint each and one stepClock
	// instead of the simulator (step_test.go).
	stepped bool
	// live, when stepped, lists the nodes the bed builds (nil: all n); the
	// test plays the others. Their c.nodes entries are nil.
	live []types.NodeID
}

func newTCluster(t testing.TB, n int, o topt) *tcluster {
	t.Helper()
	if o.timeout == 0 {
		o.timeout = 3 * time.Second
	}
	if o.txCount == 0 {
		o.txCount = 3
	}
	if o.txSize == 0 {
		o.txSize = 64
	}
	if o.delta == 0 {
		o.delta = 50 * time.Millisecond
	}
	c := &tcluster{t: t, o: o, orders: make([][]CommittedVertex, n), keys: testKeys(n), n: n}
	c.reg = crypto.NewRegistry(c.keys, o.sigs || o.stepped)
	if o.stepped {
		c.clk = &stepClock{}
	} else {
		cfg := simnet.Config{N: n, Seed: o.seed + 11}
		if o.uniform {
			cfg.LatencyRTTms = [][]float64{{2 * float64(o.delta) / float64(time.Millisecond)}}
			cfg.JitterPct = -1
			if o.jitter > 0 {
				cfg.JitterPct = o.jitter
			}
		} else {
			cfg.Regions = simnet.EvenRegions(n, 5)
		}
		c.net = simnet.New(cfg)
	}
	for i := 0; i < n; i++ {
		if o.store {
			c.stores = append(c.stores, store.NewMem())
		}
		if o.live != nil && !slices.Contains(o.live, types.NodeID(i)) {
			c.nodes = append(c.nodes, nil)
			continue
		}
		node := c.build(i)
		c.nodes = append(c.nodes, node)
		if !o.mute[types.NodeID(i)] {
			node.Start()
		}
	}
	t.Cleanup(c.stop)
	return c
}

// build assembles party i, unstarted, on its endpoint and its store: a
// restart calls it again and finds what the store kept.
func (c *tcluster) build(i int) *Node {
	o, id := c.o, types.NodeID(i)
	var ep transport.Endpoint
	var clk transport.Clock
	var costs crypto.Costs
	if o.stepped {
		ep, clk = &wireEndpoint{self: id, n: c.n, wire: &c.inFlight}, c.clk
		costs.EdSign = signCost
	} else {
		ep, clk = c.net.Endpoint(id), c.net.Clock(id)
		if o.fnet != nil {
			ep = o.fnet.Wrap(ep, clk)
		}
	}
	var st store.Store
	if o.store {
		st = c.stores[i]
	}
	return newNode(c.keys, c.reg, Config{
		Self: id, Mode: o.mode, Clans: o.clans, Store: st,
		LeadersPerRound: o.leaders,
		Blocks:          &testSource{id: id, txCount: o.txCount, txSize: o.txSize},
		Params: Params{RoundTimeout: o.timeout, Members: o.members, ReconfigDelay: o.rdelay,
			LeaderReputation: o.rep, ReputationWindow: o.repWin},
		GCDepth: o.gcDepth,
		Costs:   costs,
		Deliver: func(cv CommittedVertex) {
			if o.execCost > 0 {
				time.Sleep(o.execCost)
			}
			c.orders[i] = append(c.orders[i], cv)
		},
	}, ep, clk)
}

// run advances virtual time by d, then waits until every node has executed
// what it ordered, so the test may read c.orders.
func (c *tcluster) run(d time.Duration) {
	c.net.Run(d)
	for _, nd := range c.nodes {
		nd.Flush()
	}
}

// stop stops every node and its execution goroutine.
func (c *tcluster) stop() {
	for _, nd := range c.nodes {
		if nd != nil {
			nd.Stop()
		}
	}
}

// checkConsistentOrder verifies BAB total order: every pair of honest nodes'
// delivered sequences must be prefix-consistent (same positions in the same
// order).
func (c *tcluster) checkConsistentOrder(mute map[types.NodeID]bool) {
	c.t.Helper()
	var ref []types.Position
	refNode := -1
	for i := 0; i < c.n; i++ {
		if mute[types.NodeID(i)] {
			continue
		}
		var seq []types.Position
		for _, cv := range c.orders[i] {
			seq = append(seq, cv.Vertex.Pos())
		}
		if len(seq) > len(ref) {
			ref = seq
			refNode = i
		}
	}
	for i := 0; i < c.n; i++ {
		if mute[types.NodeID(i)] || i == refNode {
			continue
		}
		for j, cv := range c.orders[i] {
			if cv.Vertex.Pos() != ref[j] {
				c.t.Fatalf("order divergence: node %d position %d has %v, node %d has %v",
					i, j, cv.Vertex.Pos(), refNode, ref[j])
			}
		}
	}
}

// isolate is the partition "isolate" of node id against the rest of n.
func isolate(n int, id types.NodeID) faults.Event {
	var rest []types.NodeID
	for i := types.NodeID(0); int(i) < n; i++ {
		if i != id {
			rest = append(rest, i)
		}
	}
	return faults.Event{Kind: faults.KindPartition, Name: "isolate", Groups: [][]types.NodeID{{id}, rest}}
}

// minOrdered returns the smallest number of ordered vertices among live
// nodes.
func (c *tcluster) minOrdered(mute map[types.NodeID]bool) int {
	min := -1
	for i := 0; i < c.n; i++ {
		if mute[types.NodeID(i)] {
			continue
		}
		if min == -1 || len(c.orders[i]) < min {
			min = len(c.orders[i])
		}
	}
	return min
}

func TestBaselineLiveness(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c := newTCluster(t, n, topt{mode: ModeBaseline})
			c.run(8 * time.Second)
			if got := c.minOrdered(nil); got < 3*n {
				t.Fatalf("ordered only %d vertices", got)
			}
			c.checkConsistentOrder(nil)
			// Baseline: every ordered block-carrying vertex has its block
			// at every node.
			for i := 0; i < n; i++ {
				for _, cv := range c.orders[i] {
					if !cv.Vertex.BlockDigest.IsZero() && cv.Block == nil {
						t.Fatalf("node %d missing block for %v", i, cv.Vertex.Pos())
					}
				}
			}
		})
	}
}

func TestSingleClanLivenessAndBlockConfinement(t *testing.T) {
	n := 10
	clan := SampleClans(ModeSingleClan, (&Params{}).MemberSet(n), 6, 0, 5, nil)[0]
	inClan := map[types.NodeID]bool{}
	for _, id := range clan {
		inClan[id] = true
	}
	c := newTCluster(t, n, topt{mode: ModeSingleClan, clans: [][]types.NodeID{clan}})
	c.run(8 * time.Second)
	if got := c.minOrdered(nil); got < 3*n {
		t.Fatalf("ordered only %d vertices", got)
	}
	c.checkConsistentOrder(nil)
	sawBlock := false
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		for _, cv := range c.orders[i] {
			// Only clan members propose payloads.
			if !inClan[cv.Vertex.Source] && !cv.Vertex.BlockDigest.IsZero() {
				t.Fatalf("non-clan member %d proposed a block", cv.Vertex.Source)
			}
			if cv.Block != nil {
				sawBlock = true
				if !inClan[id] {
					t.Fatalf("non-clan node %d received a block payload", id)
				}
			} else if inClan[id] && !cv.Vertex.BlockDigest.IsZero() {
				t.Fatalf("clan node %d missing block for %v", id, cv.Vertex.Pos())
			}
		}
	}
	if !sawBlock {
		t.Fatal("no blocks ordered at clan members")
	}
}

func TestMultiClanLivenessAndBlockConfinement(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	n := 12
	clans := SampleClans(ModeMultiClan, (&Params{}).MemberSet(n), 0, 2, 9, nil)
	clanOf := map[types.NodeID]int{}
	for ci, cl := range clans {
		for _, id := range cl {
			clanOf[id] = ci
		}
	}
	c := newTCluster(t, n, topt{mode: ModeMultiClan, clans: clans})
	c.run(8 * time.Second)
	if got := c.minOrdered(nil); got < 3*n {
		t.Fatalf("ordered only %d vertices", got)
	}
	c.checkConsistentOrder(nil)
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		gotOwn, gotOther := 0, 0
		for _, cv := range c.orders[i] {
			if cv.Vertex.BlockDigest.IsZero() {
				continue
			}
			same := clanOf[cv.Vertex.Source] == clanOf[id]
			if cv.Block != nil {
				gotOwn++
				if !same {
					t.Fatalf("node %d received block from foreign clan proposer %d", id, cv.Vertex.Source)
				}
			} else if same {
				t.Fatalf("node %d missing own-clan block from %d", id, cv.Vertex.Source)
			} else {
				gotOther++
			}
		}
		if gotOwn == 0 || gotOther == 0 {
			t.Fatalf("node %d: own=%d foreign=%d blocks ordered", id, gotOwn, gotOther)
		}
	}
}

// TestCrashFaultTolerance: f crashed parties (never the current leaders
// forever — round-robin leadership makes crashed nodes leaders periodically,
// exercising the timeout/no-vote path too).
func TestCrashFaultTolerance(t *testing.T) {
	n := 7 // f = 2
	mute := map[types.NodeID]bool{5: true, 6: true}
	c := newTCluster(t, n, topt{mode: ModeBaseline, mute: mute, timeout: 700 * time.Millisecond})
	c.run(25 * time.Second)
	if got := c.minOrdered(mute); got < 2*n {
		t.Fatalf("ordered only %d vertices with %d crashed", got, len(mute))
	}
	c.checkConsistentOrder(mute)
	// The crashed parties were leaders at some rounds; timeouts must have
	// fired.
	timeouts := 0
	for i := 0; i < 5; i++ {
		timeouts += c.nodes[i].MetricsSnapshot().Timeouts
	}
	if timeouts == 0 {
		t.Fatal("no timeouts despite crashed leaders")
	}
}

func TestSingleClanWithCrashes(t *testing.T) {
	n := 10                                  // f = 3
	clan := []types.NodeID{0, 1, 2, 3, 4, 5} // fc = 2
	// Crash 2 clan members (<= fc) and 1 outsider (3 total = f).
	mute := map[types.NodeID]bool{4: true, 5: true, 9: true}
	c := newTCluster(t, n, topt{
		mode: ModeSingleClan, clans: [][]types.NodeID{clan},
		mute: mute, timeout: 700 * time.Millisecond,
	})
	c.run(30 * time.Second)
	if got := c.minOrdered(mute); got < n {
		t.Fatalf("ordered only %d vertices", got)
	}
	c.checkConsistentOrder(mute)
}

// TestCommitLatencyThreeDelta: on a uniform-latency network (one-way delta =
// 50 ms) with the two-round RBC, Sailfish commits leader vertices in ~3
// delta and rounds advance every ~2 delta. Verify the engine achieves the
// paper's latency shape (within tolerance for the self-delivery and
// processing slack).
func TestCommitLatencyThreeDelta(t *testing.T) {
	n := 7
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1})
	c.run(10 * time.Second)
	if c.minOrdered(nil) == 0 {
		t.Fatal("nothing ordered")
	}
	// Round rate: ~2 delta = 100 ms per round after pipelining.
	rounds := c.nodes[0].Round()
	elapsed := c.net.Now()
	perRound := elapsed / time.Duration(rounds)
	if perRound < 80*time.Millisecond || perRound > 160*time.Millisecond {
		t.Fatalf("round duration %v, want ~100ms (2 delta)", perRound)
	}
	// Direct leader commits dominate in the failure-free run.
	m := c.nodes[0].MetricsSnapshot()
	if m.DirectCommits < int(rounds)/2 {
		t.Fatalf("only %d direct commits over %d rounds", m.DirectCommits, rounds)
	}
	if m.Timeouts != 0 {
		t.Fatalf("%d spurious timeouts in failure-free run", m.Timeouts)
	}
}

// TestEquivocatingProposerSafety: a Byzantine party sends two different
// round-0 vertices to two halves of the tribe. At most one can be certified;
// the total order must stay consistent and live.
func TestEquivocatingProposerSafety(t *testing.T) {
	n := 7
	mute := map[types.NodeID]bool{6: true}
	c := newTCluster(t, n, topt{mode: ModeBaseline, mute: mute, timeout: 700 * time.Millisecond, sigs: true})

	va := &types.Vertex{Round: 0, Source: 6, BlockDigest: (&types.Block{Round: 0, Source: 6, Txs: [][]byte{{1}}}).Digest()}
	vb := &types.Vertex{Round: 0, Source: 6, BlockDigest: (&types.Block{Round: 0, Source: 6, Txs: [][]byte{{2}}}).Digest()}
	blkA := &types.Block{Round: 0, Source: 6, Txs: [][]byte{{1}}}
	blkB := &types.Block{Round: 0, Source: 6, Txs: [][]byte{{2}}}
	sa := crypto.Sign(&c.keys[6], vertexCtx(new(ctxBuf), va.DigestCached()))
	sb := crypto.Sign(&c.keys[6], vertexCtx(new(ctxBuf), vb.DigestCached()))
	ep := c.net.Endpoint(6)
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			ep.Send(types.NodeID(i), &types.ValMsg{Vertex: va, Block: blkA, Sig: sa})
		} else {
			ep.Send(types.NodeID(i), &types.ValMsg{Vertex: vb, Block: blkB, Sig: sb})
		}
	}
	c.run(20 * time.Second)
	if got := c.minOrdered(mute); got < n {
		t.Fatalf("ordered only %d vertices", got)
	}
	c.checkConsistentOrder(mute)
	// If the equivocator's vertex was ordered anywhere, it must be the
	// same digest everywhere.
	var seen *types.Hash
	for i := 0; i < 6; i++ {
		for _, cv := range c.orders[i] {
			if cv.Vertex.Source == 6 {
				d := cv.Vertex.DigestCached()
				if seen == nil {
					seen = &d
				} else if *seen != d {
					t.Fatal("both equivocating vertices ordered")
				}
			}
		}
	}
}

// TestNonClanBlockProposalRejected: in single-clan mode a vertex from a
// non-clan proposer carrying a payload digest is invalid and must not be
// delivered, while the protocol keeps running.
func TestNonClanBlockProposalRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	n := 10
	clan := []types.NodeID{0, 1, 2, 3, 4, 5}
	var outsider types.NodeID = 9
	mute := map[types.NodeID]bool{outsider: true}
	c := newTCluster(t, n, topt{
		mode: ModeSingleClan, clans: [][]types.NodeID{clan},
		mute: mute, timeout: 700 * time.Millisecond,
	})
	bad := &types.Vertex{Round: 0, Source: outsider, BlockDigest: types.HashBytes([]byte("illegal"))}
	sig := crypto.Sign(&c.keys[outsider], vertexCtx(new(ctxBuf), bad.DigestCached()))
	c.net.Endpoint(outsider).Broadcast(&types.ValMsg{Vertex: bad, Sig: sig})
	c.run(15 * time.Second)
	if got := c.minOrdered(mute); got < n {
		t.Fatalf("ordered only %d", got)
	}
	for i := 0; i < n; i++ {
		if mute[types.NodeID(i)] {
			continue
		}
		for _, cv := range c.orders[i] {
			if cv.Vertex.Source == outsider {
				t.Fatal("invalid block-carrying vertex was ordered")
			}
		}
	}
}

// TestGCBoundsState: long runs must not accumulate unbounded per-instance
// state.
func TestGCBoundsState(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation (hundreds of rounds)")
	}
	n := 4
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1})
	c.run(60 * time.Second) // hundreds of rounds at 100ms each
	node := c.nodes[0]
	if node.Round() < 100 {
		t.Fatalf("only reached round %d", node.Round())
	}
	if node.dag.MinRound() == 0 {
		t.Fatal("GC never advanced")
	}
	maxState := (node.cfg.GCDepth + int(node.Round()-node.dag.MinRound()) + 8) * n
	if node.rbc.Rounds() > maxState {
		t.Fatalf("instance state grew to %d (bound %d)", node.rbc.Rounds(), maxState)
	}
	if len(node.rbc.blocks) > maxState {
		t.Fatalf("block cache grew to %d", len(node.rbc.blocks))
	}
}

// TestDeliverOrderWithinNode: LeaderRound must be non-decreasing and rounds
// within a leader batch non-decreasing.
func TestDeliverOrderWithinNode(t *testing.T) {
	n := 7
	c := newTCluster(t, n, topt{mode: ModeBaseline})
	c.run(6 * time.Second)
	for i := 0; i < n; i++ {
		var lastLeader types.Round
		for _, cv := range c.orders[i] {
			if cv.LeaderRound < lastLeader {
				t.Fatalf("node %d: leader round went backwards", i)
			}
			if cv.Vertex.Round > cv.LeaderRound {
				t.Fatalf("node %d: ordered vertex from round %d under leader round %d",
					i, cv.Vertex.Round, cv.LeaderRound)
			}
			lastLeader = cv.LeaderRound
		}
	}
}

// TestAllProposersEventuallyOrdered (BAB validity): in a healthy run every
// party's early vertices appear in the total order.
func TestAllProposersEventuallyOrdered(t *testing.T) {
	n := 7
	c := newTCluster(t, n, topt{mode: ModeBaseline})
	c.run(10 * time.Second)
	sources := map[types.NodeID]bool{}
	for _, cv := range c.orders[0] {
		if cv.Vertex.Round <= 2 {
			sources[cv.Vertex.Source] = true
		}
	}
	if len(sources) != n {
		t.Fatalf("only %d of %d proposers ordered in early rounds", len(sources), n)
	}
}

// TestRoundJumpCatchUp: a node cut off for a while must, once reconnected,
// jump to the cluster's current round instead of grinding through every
// missed round.
func TestRoundJumpCatchUp(t *testing.T) {
	n := 4
	fnet := faults.NewNet(n, 1, nil)
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, timeout: 400 * time.Millisecond, fnet: fnet})
	c.run(2 * time.Second)
	// Partition node 3 (it stays running but hears nothing).
	fnet.Apply(c.net.Now(), isolate(n, 3))
	c.run(5 * time.Second)
	behind := c.nodes[3].Round()
	ahead := c.nodes[0].Round()
	if ahead < behind+8 {
		t.Fatalf("cluster did not pull ahead: %d vs %d", ahead, behind)
	}
	// Reconnect: node 3 must catch up to the cluster's round, not replay
	// every missed round one by one.
	fnet.Apply(c.net.Now(), faults.Event{Kind: faults.KindHeal, Name: "isolate"})
	c.run(3 * time.Second)
	if got := c.nodes[3].Round(); got < c.nodes[0].Round()-5 {
		t.Fatalf("node 3 stuck at round %d, cluster at %d", got, c.nodes[0].Round())
	}
	c.checkConsistentOrder(nil)
}

// TestFloodFarFutureViewStateBounded: check for the RBC table and view map
// retention audit. Validly signed timeouts and no-votes (and garbage TCs)
// for rounds far beyond the tracking window must not grow the round-keyed
// view records — without the gcdRound upper bound one Byzantine voter could
// allocate an N-sized aggregator per flooded round.
func TestFloodFarFutureViewStateBounded(t *testing.T) {
	n := 4
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1})
	c.run(500 * time.Millisecond)
	ep := c.net.Endpoint(1)
	for i := 0; i < 200; i++ {
		r := types.Round(10000 + i*37)
		ep.Send(0, &types.ViewVoteMsg{Vote: types.ViewVote{
			Round: r, Voter: 1, Sig: crypto.Sign(&c.keys[1], viewCtx(r, false)),
		}})
		ep.Send(0, &types.ViewVoteMsg{NoVote: true, Vote: types.ViewVote{
			Round: r, Voter: 1, Sig: crypto.Sign(&c.keys[1], viewCtx(r, true)),
		}})
		ep.Send(0, &types.TCMsg{TC: types.ViewCert{Round: r}})
	}
	c.run(500 * time.Millisecond)
	node := c.nodes[0]
	bound := 4*node.cfg.GCDepth + 8 // the tracking window, with slack
	if got := len(node.views); got > bound {
		t.Fatalf("views grew to %d (bound %d) under far-future flood", got, bound)
	}
}

// TestFloodFarFutureMultiLeaderStateBounded extends the retention audit to
// multi-leader rounds with the reputation schedule active. A crashed leader
// makes every rotation pass produce timeout evidence, and a Byzantine party
// floods validly signed far-future view traffic on top; afterwards
//
//   - the round-keyed view maps stay within the tracking window (independent
//     of LeadersPerRound),
//   - the per-round anchor ledgers (vote tallies, commit marks) stay within
//     the window — one per retained round, nothing pinned past GC,
//   - the reputation ledger stays bounded: events expire out at
//     ReputationWindow + ReconfigDelay + GCDepth behind the commit frontier
//     and the per-round offense dedupe map follows the GC horizon.
//
// TestReputationScheduleCrossNodeAgreement: the reputation-driven leader
// schedule is a pure function of the committed prefix, so every live party
// must derive a byte-identical leader schedule for any round range below the
// common commit horizon — and with a rotation member crashed, that schedule
// must actually diverge from the static round-robin (the offender demoted
// for ReputationWindow rounds while its evidence is active).
// leaderSchedule returns nd's primary for every round below hi, under its
// committed evidence; call it once nd is idle.
func leaderSchedule(nd *Node, hi types.Round) []types.NodeID {
	out := make([]types.NodeID, 0, hi)
	for r := types.Round(0); r < hi; r++ {
		out = append(out, nd.order.Leader(r))
	}
	return out
}

func TestReputationScheduleCrossNodeAgreement(t *testing.T) {
	n, leaders := 5, 2 // the primary rotates one member per round, so the mute
	// node is periodically the slot-0 primary: rounds time out and TCs commit.
	mute := map[types.NodeID]bool{4: true}
	c := newTCluster(t, n, topt{leaders: leaders, txCount: 2,
		mode: ModeBaseline, mute: mute,
		timeout: 700 * time.Millisecond,
		rep:     true, repWin: 16, rdelay: 4,
	})
	c.run(15 * time.Second)
	if got := c.minOrdered(mute); got < n {
		t.Fatalf("ordered only %d vertices", got)
	}
	c.checkConsistentOrder(mute)

	// The schedule is final for rounds at or below every live node's last
	// ordered round: evidence applying at round r was anchored
	// ReconfigDelay+1 rounds below, so it is inside all their prefixes.
	horizon := types.Round(0)
	for i := 0; i < n; i++ {
		if mute[types.NodeID(i)] {
			continue
		}
		if r := c.nodes[i].MetricsSnapshot().LastOrderedRound; horizon == 0 || r < horizon {
			horizon = r
		}
	}
	if horizon < 10 {
		t.Fatalf("commit horizon too low for a meaningful range: %d", horizon)
	}
	ref := leaderSchedule(c.nodes[0], horizon)
	for i := 1; i < n; i++ {
		if mute[types.NodeID(i)] {
			continue
		}
		got := leaderSchedule(c.nodes[i], horizon)
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("schedule diverged: node %d has %d as round-%d primary, node 0 has %d",
					i, got[j], j, ref[j])
			}
		}
	}
	demotions := 0
	for r := 0; r < len(ref); r++ {
		static := types.NodeID(r % n)
		if ref[r] != static {
			demotions++
			if ref[r] == 4 {
				t.Fatalf("round %d primary moved to the crashed party itself", r)
			}
		}
	}
	if demotions == 0 {
		t.Fatal("schedule never diverged from the static rotation despite a crashed leader")
	}
	t.Logf("horizon %d: %d rounds rescheduled away from static rotation", horizon, demotions)
}

func TestFloodFarFutureMultiLeaderStateBounded(t *testing.T) {
	n, leaders := 5, 2 // the mute node is the slot-0 primary every fifth
	// round, so rounds time out and TCs commit.
	mute := map[types.NodeID]bool{4: true}
	c := newTCluster(t, n, topt{leaders: leaders, txCount: 2,
		mode: ModeBaseline, uniform: true, mute: mute,
		timeout: 700 * time.Millisecond,
		rep:     true, repWin: 16, rdelay: 4,
	})
	c.run(12 * time.Second)
	ep := c.net.Endpoint(1)
	for i := 0; i < 200; i++ {
		r := types.Round(10000 + i*37)
		ep.Send(0, &types.ViewVoteMsg{Vote: types.ViewVote{
			Round: r, Voter: 1, Sig: crypto.Sign(&c.keys[1], viewCtx(r, false)),
		}})
		ep.Send(0, &types.ViewVoteMsg{NoVote: true, Vote: types.ViewVote{
			Round: r, Voter: 1, Sig: crypto.Sign(&c.keys[1], viewCtx(r, true)),
		}})
		ep.Send(0, &types.TCMsg{TC: types.ViewCert{Round: r}})
	}
	c.run(500 * time.Millisecond)
	node := c.nodes[0]
	window := 4*node.cfg.GCDepth + 8
	if got := len(node.views); got > window {
		t.Fatalf("views grew to %d (bound %d)", got, window)
	}
	// One anchor ledger per retained round, whatever the slot count, and the
	// recycle list only ever holds ledgers gc retired from that set.
	ledgers, retired, events, charged := node.order.Footprint()
	if ledgers > window {
		t.Fatalf("anchor ledgers grew to %d (bound %d = window)", ledgers, window)
	}
	if retired > window {
		t.Fatalf("retired anchor ledgers grew to %d (bound %d = window)", retired, window)
	}
	if node.MetricsSnapshot().ReputationOffenses == 0 {
		t.Fatal("muted leader produced no committed timeout evidence")
	}
	repBound := int(node.cfg.ReputationWindow) + int(node.cfg.ReconfigDelay) + node.cfg.GCDepth + 8
	if events > repBound {
		t.Fatalf("reputation events grew to %d (bound %d)", events, repBound)
	}
	if charged > window {
		t.Fatalf("charged offense rounds grew to %d (bound %d)", charged, window)
	}
	c.checkConsistentOrder(mute)
}

// TestPartialSynchronyGST: heavy random pre-GST delays must not break
// safety, and after GST the protocol commits normally (the DWOK partial
// synchrony model of Section 2). Before GST, at 4 s, every message waits up
// to 2 s extra.
func TestPartialSynchronyGST(t *testing.T) {
	n := 7
	fnet := faults.NewNet(n, 77, nil)
	c := newTCluster(t, n, topt{mode: ModeBaseline, txCount: 1, timeout: 900 * time.Millisecond, fnet: fnet, seed: 66})
	faults.Drive(faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindReorder, From: faults.All, To: faults.All, Delay: 2 * time.Second},
		{At: 4 * time.Second, Kind: faults.KindHeal},
	}}, c.net.Clock(0), fnet, faults.Hooks{})
	c.run(4 * time.Second) // asynchronous period
	preGST := len(c.orders[0])
	c.run(8 * time.Second) // stable period
	// Liveness after GST.
	if got := len(c.orders[0]) - preGST; got < 3*n {
		t.Fatalf("ordered only %d vertices after GST", got)
	}
	// Safety throughout.
	c.checkConsistentOrder(nil)
}

// TestRandomCrashPatterns property-checks BAB safety across random crash
// sets of size <= f in all three modes.
func TestRandomCrashPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	for seed := int64(0); seed < 3; seed++ {
		for _, mode := range []Mode{ModeBaseline, ModeSingleClan, ModeMultiClan} {
			n := 10 // f = 3
			var clans [][]types.NodeID
			switch mode {
			case ModeSingleClan:
				clans = [][]types.NodeID{{0, 1, 2, 3, 4, 5}} // fc = 2
			case ModeMultiClan:
				clans = [][]types.NodeID{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}
			}
			// Crash pattern derived from the seed: up to f nodes, at most
			// fc per clan.
			mute := map[types.NodeID]bool{}
			cand := []types.NodeID{types.NodeID(3 + seed), types.NodeID(6 + seed), 9}
			perClanMuted := map[types.ClanID]int{}
			clanOf := func(id types.NodeID) types.ClanID {
				for ci, cl := range clans {
					for _, m := range cl {
						if m == id {
							return types.ClanID(ci)
						}
					}
				}
				return types.NoClan
			}
			for _, id := range cand {
				if len(mute) >= 3 || mute[id] {
					continue
				}
				ci := clanOf(id)
				if ci != types.NoClan {
					fc := committee.ClanMaxFaulty(len(clans[ci]))
					if perClanMuted[ci] >= fc {
						continue
					}
					perClanMuted[ci]++
				}
				mute[id] = true
			}
			c := newTCluster(t, n, topt{
				mode: mode, clans: clans, mute: mute,
				timeout: 600 * time.Millisecond, seed: seed,
			})
			c.run(20 * time.Second)
			if got := c.minOrdered(mute); got < n {
				t.Fatalf("mode=%v seed=%d mute=%v: ordered only %d", mode, seed, mute, got)
			}
			c.checkConsistentOrder(mute)
		}
	}
}

// TestMultiLeaderLivenessAndSafety: multi-leader Sailfish (the paper's
// baseline implementation variant) must stay safe and live, with more direct
// commits per round than the single-leader configuration.
func TestMultiLeaderLivenessAndSafety(t *testing.T) {
	for _, leaders := range []int{2, 3} {
		c := newTCluster(t, 7, topt{leaders: leaders, txCount: 2, mode: ModeBaseline})
		c.run(8 * time.Second)
		if got := c.minOrdered(nil); got < 3*7 {
			t.Fatalf("L=%d: ordered only %d", leaders, got)
		}
		c.checkConsistentOrder(nil)
		m := c.nodes[0].MetricsSnapshot()
		rounds := int(c.nodes[0].Round())
		if m.DirectCommits < rounds {
			t.Fatalf("L=%d: %d direct commits over %d rounds (expected > 1/round)",
				leaders, m.DirectCommits, rounds)
		}
	}
}

// TestMultiLeaderLowersNonPrimaryLatency: with more leaders per round, more
// vertices sit directly under a 3-delta commit, so average commit latency
// drops versus single-leader (the multi-leader motivation) — furthest with
// every member an anchor, the default.
func TestMultiLeaderLowersNonPrimaryLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-leader latency sweep")
	}
	measure := func(leaders int) time.Duration {
		c := newTCluster(t, 8, topt{leaders: leaders, uniform: true, txCount: 1, txSize: 32})
		c.run(15 * time.Second)
		c.stop()
		var latSum time.Duration
		var latN int
		for _, cv := range c.orders[0] {
			if cv.Block != nil {
				latSum += cv.OrderedAt - time.Duration(cv.Block.CreatedAt)
				latN++
			}
		}
		if latN == 0 {
			t.Fatal("nothing committed")
		}
		return latSum / time.Duration(latN)
	}
	l1 := measure(1)
	l4 := measure(4)
	ln := measure(0) // every member: the default
	if l4 >= l1 {
		t.Fatalf("L=4 latency %v not below L=1 latency %v", l4, l1)
	}
	if ln >= l4 {
		t.Fatalf("L=n latency %v not below L=4 latency %v", ln, l4)
	}
	t.Logf("avg commit latency: L=1 %v, L=4 %v, L=n %v", l1, l4, ln)
}

// TestMultiLeaderWithClanModes: the clan technique composes with
// multi-leader consensus unchanged.
func TestMultiLeaderWithClanModes(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	clan := []types.NodeID{0, 1, 2, 3, 4, 5}
	c := newTCluster(t, 10, topt{leaders: 2, txCount: 2, mode: ModeSingleClan, clans: [][]types.NodeID{clan}})
	c.run(8 * time.Second)
	if got := c.minOrdered(nil); got < 20 {
		t.Fatalf("ordered only %d", got)
	}
	c.checkConsistentOrder(nil)
}

// TestMultiLeaderCrashedSecondary: a crashed non-primary leader must not
// stall rounds (only the primary gates advancement).
func TestMultiLeaderCrashedSecondary(t *testing.T) {
	n := 7
	// With L=2 and round-robin slots, node 1 occupies secondary slots in
	// some rounds. Crash nodes 5,6 (f=2) and verify liveness.
	mute := map[types.NodeID]bool{5: true, 6: true}
	c := newTCluster(t, n, topt{leaders: 2, txCount: 2, mode: ModeBaseline, mute: mute, timeout: 700 * time.Millisecond})
	c.run(25 * time.Second)
	if got := c.minOrdered(mute); got < n {
		t.Fatalf("ordered only %d", got)
	}
	c.checkConsistentOrder(mute)
}

// TestPhantomEdgeVertexNeverCertified: a Byzantine proposer references a
// nonexistent vertex. Honest parties must refuse to echo until the parent
// delivers (it never will), so the poisoned vertex is never certified, never
// enters any causal history, and consensus continues unharmed. Without
// parent-delivery gating this attack stalls ordering forever.
func TestPhantomEdgeVertexNeverCertified(t *testing.T) {
	n := 7
	mute := map[types.NodeID]bool{6: true}
	c := newTCluster(t, n, topt{mode: ModeBaseline, mute: mute, timeout: 700 * time.Millisecond})
	c.run(1 * time.Second)

	// Node 6 crafts a round-0 vertex... round 0 must have no edges, so use
	// a round-1 vertex with valid strong edges plus a phantom weak edge.
	var strong []types.VertexRef
	for _, cv := range []types.NodeID{0, 1, 2, 3, 4} {
		pos := types.Position{Round: 0, Source: cv}
		if in := c.nodes[0].rbc.Get(pos); in != nil && in.Vertex() != nil {
			strong = append(strong, in.Vertex().Ref())
		}
	}
	if len(strong) < 5 {
		t.Fatalf("setup: only %d round-0 vertices visible", len(strong))
	}
	phantom := types.VertexRef{Round: 0, Source: 5, Digest: types.HashBytes([]byte("ghost"))}
	// Wait: source 5 exists. Use a digest-mismatched... simpler: phantom
	// position entirely: round 0 has sources 0..6; a ref to a source that
	// never proposed cannot be pulled. Node 6 itself is muted, so (0,6)
	// never delivered anywhere.
	phantom = types.VertexRef{Round: 0, Source: 6, Digest: types.HashBytes([]byte("ghost"))}
	bad := &types.Vertex{Round: 2, Source: 6, StrongEdges: nil, WeakEdges: []types.VertexRef{phantom}}
	// Build strong edges from round-1 vertices visible at node 0.
	var strong1 []types.VertexRef
	for src := types.NodeID(0); src < 6; src++ {
		pos := types.Position{Round: 1, Source: src}
		if in := c.nodes[0].rbc.Get(pos); in != nil && in.Vertex() != nil {
			strong1 = append(strong1, in.Vertex().Ref())
		}
	}
	if len(strong1) < 5 {
		t.Fatalf("setup: only %d round-1 vertices visible", len(strong1))
	}
	bad.StrongEdges = strong1[:5]
	bad.NormalizeEdges()
	sig := crypto.Sign(&c.keys[6], vertexCtx(new(ctxBuf), bad.DigestCached()))
	c.net.Endpoint(6).Broadcast(&types.ValMsg{Vertex: bad, Sig: sig})
	c.run(15 * time.Second)

	// Liveness preserved.
	if got := c.minOrdered(mute); got < 2*n {
		t.Fatalf("ordered only %d with a phantom-edge attacker", got)
	}
	c.checkConsistentOrder(mute)
	// The poisoned vertex was never certified or ordered anywhere.
	for i := 0; i < 6; i++ {
		if in := c.nodes[i].rbc.Get(bad.Pos()); in != nil {
			if in.Delivered() || in.Cert().Bitmap != nil {
				t.Fatalf("node %d certified the phantom-edge vertex", i)
			}
		}
		for _, cv := range c.orders[i] {
			if cv.Vertex.Source == 6 && cv.Vertex.Round == 2 {
				t.Fatal("phantom-edge vertex was ordered")
			}
		}
	}
}

// TestFullPartitionHeals: split 4 nodes into two halves (no quorum anywhere,
// all cross-half traffic silently dropped), hold the partition across
// multiple timeout periods, then heal. The retransmission logic (timeout/TC
// re-broadcast, certificate-backed vertex pulls) must resume progress —
// one-shot message protocols deadlock here.
func TestFullPartitionHeals(t *testing.T) {
	n := 4
	fnet := faults.NewNet(n, 1, nil)
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, timeout: 400 * time.Millisecond, fnet: fnet})
	c.run(1 * time.Second)
	before := c.nodes[0].Round()
	if before < 3 {
		t.Fatalf("slow start: round %d", before)
	}
	fnet.Apply(c.net.Now(), faults.Event{Kind: faults.KindPartition, Name: "halves", Groups: [][]types.NodeID{{0, 1}, {2, 3}}})
	c.run(3 * time.Second) // several timeout periods of pure loss
	stalled := c.nodes[0].Round()
	if stalled > before+2 {
		t.Fatalf("impossible progress during total partition: %d -> %d", before, stalled)
	}
	// Heal and verify recovery.
	fnet.Apply(c.net.Now(), faults.Event{Kind: faults.KindHeal, Name: "halves"})
	c.run(6 * time.Second)
	after := c.nodes[0].Round()
	if after < stalled+10 {
		t.Fatalf("no recovery after heal: %d -> %d", stalled, after)
	}
	c.checkConsistentOrder(nil)
	for i := 1; i < n; i++ {
		if c.nodes[i].Round() < after-3 {
			t.Fatalf("node %d lagging at %d (cluster %d)", i, c.nodes[i].Round(), after)
		}
	}
}
