package core

import (
	"fmt"
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

type tcluster struct {
	t      *testing.T
	net    *simnet.Net
	nodes  []*Node
	orders [][]CommittedVertex
	keys   []crypto.KeyPair
	reg    *crypto.Registry
	n      int
}

type topt struct {
	mode    Mode
	clans   [][]types.NodeID
	mute    map[types.NodeID]bool // nodes never started (crash faults)
	timeout time.Duration
	txCount int
	uniform bool    // single-region topology for latency math
	jitter  float64 // with uniform: one-way delays vary by +-jitter (default none)
	seed    int64
	sparse  bool           // sparse-edge DAG mode on every node
	members []types.NodeID // epoch-0 members (nil = all n)
	rdelay  types.Round    // ReconfigDelay override
	rep     bool           // reputation-driven leader schedule
	repWin  types.Round    // ReputationWindow override
	anchor  time.Duration  // AnchorWait (pipelined-anchor pause cap)
	fnet    *faults.Net    // wraps every endpoint (fault rules, message tap)
	store   bool           // every node persists to its own in-memory store
	gcDepth int            // GCDepth (0: the default)
}

func newTCluster(t *testing.T, n int, o topt) *tcluster {
	t.Helper()
	if o.timeout == 0 {
		o.timeout = 3 * time.Second
	}
	if o.txCount == 0 {
		o.txCount = 3
	}
	cfg := simnet.Config{N: n, Seed: o.seed + 11}
	if o.uniform {
		cfg.LatencyRTTms = [][]float64{{100}}
		cfg.JitterPct = -1
		if o.jitter > 0 {
			cfg.JitterPct = o.jitter
		}
	} else {
		cfg.Regions = simnet.EvenRegions(n, 5)
	}
	c := &tcluster{
		t:      t,
		net:    simnet.New(cfg),
		orders: make([][]CommittedVertex, n),
		keys:   crypto.GenerateKeys(n, 21),
		n:      n,
	}
	c.reg = crypto.NewRegistry(c.keys, true)
	for i := 0; i < n; i++ {
		i := i
		id := types.NodeID(i)
		var ep transport.Endpoint = c.net.Endpoint(id)
		if o.fnet != nil {
			ep = o.fnet.Wrap(ep, c.net.Clock(id))
		}
		var st store.Store
		if o.store {
			st = store.NewMem()
		}
		node := New(Config{
			Store:            st,
			Self:             id,
			N:                n,
			Mode:             o.mode,
			Clans:            o.clans,
			Key:              &c.keys[i],
			Reg:              c.reg,
			Blocks:           &testSource{id: id, txCount: o.txCount, txSize: 64},
			RoundTimeout:     o.timeout,
			SparseEdges:      o.sparse,
			SparseSeed:       uint64(o.seed),
			Members:          o.members,
			ReconfigDelay:    o.rdelay,
			LeaderReputation: o.rep,
			ReputationWindow: o.repWin,
			AnchorWait:       o.anchor,
			GCDepth:          o.gcDepth,
			Deliver: func(cv CommittedVertex) {
				c.orders[i] = append(c.orders[i], cv)
			},
		}, ep, c.net.Clock(id))
		c.nodes = append(c.nodes, node)
		if !o.mute[id] {
			node.Start()
		}
	}
	return c
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
			c.net.Run(8 * time.Second)
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
	clan := committee.SampleClan(n, 6, 5)
	inClan := map[types.NodeID]bool{}
	for _, id := range clan {
		inClan[id] = true
	}
	c := newTCluster(t, n, topt{mode: ModeSingleClan, clans: [][]types.NodeID{clan}})
	c.net.Run(8 * time.Second)
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
	clans := committee.PartitionClans(n, 2, 9)
	clanOf := map[types.NodeID]int{}
	for ci, cl := range clans {
		for _, id := range cl {
			clanOf[id] = ci
		}
	}
	c := newTCluster(t, n, topt{mode: ModeMultiClan, clans: clans})
	c.net.Run(8 * time.Second)
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
	c.net.Run(25 * time.Second)
	if got := c.minOrdered(mute); got < 2*n {
		t.Fatalf("ordered only %d vertices with %d crashed", got, len(mute))
	}
	c.checkConsistentOrder(mute)
	// The crashed parties were leaders at some rounds; timeouts must have
	// fired.
	timeouts := 0
	for i := 0; i < 5; i++ {
		timeouts += c.nodes[i].Metrics.Timeouts
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
	c.net.Run(30 * time.Second)
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
	c.net.Run(10 * time.Second)
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
	m := c.nodes[0].Metrics
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
	c := newTCluster(t, n, topt{mode: ModeBaseline, mute: mute, timeout: 700 * time.Millisecond})

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
	c.net.Run(20 * time.Second)
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
	c.net.Run(15 * time.Second)
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
	c.net.Run(60 * time.Second) // hundreds of rounds at 100ms each
	node := c.nodes[0]
	if node.Round() < 100 {
		t.Fatalf("only reached round %d", node.Round())
	}
	if node.dag.MinRound() == 0 {
		t.Fatal("GC never advanced")
	}
	maxState := (node.cfg.GCDepth + int(node.Round()-node.dag.MinRound()) + 8) * n
	if len(node.rbc.insts) > maxState {
		t.Fatalf("instance state grew to %d (bound %d)", len(node.rbc.insts), maxState)
	}
	if len(node.rbc.blocks) > maxState {
		t.Fatalf("block cache grew to %d", len(node.rbc.blocks))
	}
}

// TestVotesAreObservedOnFirstMessage: commit latency relies on counting
// votes from VAL messages before RBC completion; instrument that direct
// commits happen for most rounds in a healthy run.
func TestVotesAreObservedOnFirstMessage(t *testing.T) {
	n := 4
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1})
	c.net.Run(10 * time.Second)
	m := c.nodes[0].Metrics
	if m.DirectCommits == 0 {
		t.Fatal("no direct commits")
	}
	ratio := float64(m.IndirectCommits) / float64(m.DirectCommits+m.IndirectCommits)
	if ratio > 0.5 {
		t.Fatalf("too many indirect commits (%.0f%%) for a failure-free run", ratio*100)
	}
}

// TestDeliverOrderWithinNode: LeaderRound must be non-decreasing and rounds
// within a leader batch non-decreasing.
func TestDeliverOrderWithinNode(t *testing.T) {
	n := 7
	c := newTCluster(t, n, topt{mode: ModeBaseline})
	c.net.Run(6 * time.Second)
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
	c.net.Run(10 * time.Second)
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
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, timeout: 400 * time.Millisecond})
	c.net.Run(2 * time.Second)
	// Partition node 3 (it stays running but hears nothing).
	c.net.Isolate(3, true)
	c.net.Run(5 * time.Second)
	behind := c.nodes[3].Round()
	ahead := c.nodes[0].Round()
	if ahead < behind+8 {
		t.Fatalf("cluster did not pull ahead: %d vs %d", ahead, behind)
	}
	// Reconnect: node 3 must catch up to the cluster's round, not replay
	// every missed round one by one.
	c.net.Isolate(3, false)
	c.net.Run(3 * time.Second)
	if got := c.nodes[3].Round(); got < c.nodes[0].Round()-5 {
		t.Fatalf("node 3 stuck at round %d, cluster at %d", got, c.nodes[0].Round())
	}
	c.checkConsistentOrder(nil)
}

// TestFloodFarFutureIgnored: Byzantine traffic for absurdly distant rounds
// must not bloat instance state.
func TestFloodFarFutureIgnored(t *testing.T) {
	n := 4
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1})
	c.net.Run(500 * time.Millisecond)
	before := 0
	for _, row := range c.nodes[0].rbc.insts {
		for i := range row.at {
			if row.at[i].live {
				before++
			}
		}
	}
	var d types.Hash
	for i := 0; i < 100; i++ {
		c.net.Endpoint(1).Send(0, &types.EchoMsg{Voter: 1, Entries: []types.EchoEntry{
			{Pos: types.Position{Round: 1 << 40, Source: 1}, Digest: d},
		}})
	}
	c.net.Run(500 * time.Millisecond)
	after := 0
	for _, row := range c.nodes[0].rbc.insts {
		for i := range row.at {
			if row.at[i].live {
				after++
			}
		}
	}
	// Growth bounded by legitimate round progress, not the flood.
	if after > before+8*n {
		t.Fatalf("instance state grew %d -> %d under far-future flood", before, after)
	}
}

// TestFloodFarFutureViewStateBounded: satellite check for the vinst/view map
// retention audit. Validly signed timeouts and no-votes (and garbage TCs)
// for rounds far beyond the tracking window must not grow the round-keyed
// view maps — without the gcdRound upper bound one Byzantine voter could
// allocate an N-sized aggregator per flooded round.
func TestFloodFarFutureViewStateBounded(t *testing.T) {
	n := 4
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1})
	c.net.Run(500 * time.Millisecond)
	ep := c.net.Endpoint(1)
	for i := 0; i < 200; i++ {
		r := types.Round(10000 + i*37)
		ep.Send(0, &types.TimeoutMsg{TO: types.Timeout{
			Round: r, Voter: 1, Sig: crypto.Sign(&c.keys[1], timeoutCtx(r)),
		}})
		ep.Send(0, &types.NoVoteMsg{NV: types.NoVote{
			Round: r, Voter: 1, Sig: crypto.Sign(&c.keys[1], novoteCtx(r)),
		}})
		ep.Send(0, &types.TCMsg{TC: types.TimeoutCert{Round: r}})
	}
	c.net.Run(500 * time.Millisecond)
	node := c.nodes[0]
	bound := 4*node.cfg.GCDepth + 8 // the tracking window, with slack
	if got := len(node.timeoutAggs); got > bound {
		t.Fatalf("timeoutAggs grew to %d (bound %d) under far-future flood", got, bound)
	}
	if got := len(node.novoteAggs); got > bound {
		t.Fatalf("novoteAggs grew to %d (bound %d) under far-future flood", got, bound)
	}
	if got := len(node.tcs); got > bound {
		t.Fatalf("tcs grew to %d (bound %d) under far-future flood", got, bound)
	}
	if got := len(node.nvcs); got > bound {
		t.Fatalf("nvcs grew to %d (bound %d) under far-future flood", got, bound)
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
// must derive a byte-identical LeaderSchedule for any round range below the
// common commit horizon — and with a rotation member crashed, that schedule
// must actually diverge from the static round-robin (the offender demoted
// for ReputationWindow rounds while its evidence is active).
func TestReputationScheduleCrossNodeAgreement(t *testing.T) {
	n, leaders := 5, 2 // the primary rotates one member per round, so the mute
	// node is periodically the slot-0 primary: rounds time out and TCs commit.
	mute := map[types.NodeID]bool{4: true}
	c := newTClusterML(t, n, leaders, topt{
		mode: ModeBaseline, mute: mute,
		timeout: 700 * time.Millisecond,
		rep:     true, repWin: 16, rdelay: 4,
	})
	c.net.Run(15 * time.Second)
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
		if r := c.nodes[i].Metrics.LastOrderedRound; horizon == 0 || r < horizon {
			horizon = r
		}
	}
	if horizon < 10 {
		t.Fatalf("commit horizon too low for a meaningful range: %d", horizon)
	}
	ref := c.nodes[0].LeaderSchedule(0, horizon)
	for i := 1; i < n; i++ {
		if mute[types.NodeID(i)] {
			continue
		}
		got := c.nodes[i].LeaderSchedule(0, horizon)
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
	c := newTClusterML(t, n, leaders, topt{
		mode: ModeBaseline, uniform: true, mute: mute,
		timeout: 700 * time.Millisecond,
		rep:     true, repWin: 16, rdelay: 4,
	})
	c.net.Run(12 * time.Second)
	ep := c.net.Endpoint(1)
	for i := 0; i < 200; i++ {
		r := types.Round(10000 + i*37)
		ep.Send(0, &types.TimeoutMsg{TO: types.Timeout{
			Round: r, Voter: 1, Sig: crypto.Sign(&c.keys[1], timeoutCtx(r)),
		}})
		ep.Send(0, &types.NoVoteMsg{NV: types.NoVote{
			Round: r, Voter: 1, Sig: crypto.Sign(&c.keys[1], novoteCtx(r)),
		}})
		ep.Send(0, &types.TCMsg{TC: types.TimeoutCert{Round: r}})
	}
	c.net.Run(500 * time.Millisecond)
	node := c.nodes[0]
	window := 4*node.cfg.GCDepth + 8
	if got := len(node.timeoutAggs); got > window {
		t.Fatalf("timeoutAggs grew to %d (bound %d)", got, window)
	}
	if got := len(node.novoteAggs); got > window {
		t.Fatalf("novoteAggs grew to %d (bound %d)", got, window)
	}
	if got := len(node.tcs); got > window {
		t.Fatalf("tcs grew to %d (bound %d)", got, window)
	}
	if got := len(node.nvcs); got > window {
		t.Fatalf("nvcs grew to %d (bound %d)", got, window)
	}
	// One anchor ledger per retained round, whatever the slot count, and the
	// recycle list only ever holds ledgers gc retired from that set.
	if got := len(node.ord.anchors); got > window {
		t.Fatalf("anchor ledgers grew to %d (bound %d = window)", got, window)
	}
	if got := len(node.ord.anchorFree); got > window {
		t.Fatalf("retired anchor ledgers grew to %d (bound %d = window)", got, window)
	}
	if node.Metrics.ReputationOffenses == 0 {
		t.Fatal("muted leader produced no committed timeout evidence")
	}
	repBound := int(node.cfg.ReputationWindow) + int(node.cfg.ReconfigDelay) + node.cfg.GCDepth + 8
	if got := len(node.rep.events); got > repBound {
		t.Fatalf("reputation events grew to %d (bound %d)", got, repBound)
	}
	if got := len(node.rep.offenseSeen); got > window {
		t.Fatalf("offenseSeen grew to %d (bound %d)", got, window)
	}
	c.checkConsistentOrder(mute)
}

// TestEchoDigestFloodBounded: one Byzantine voter minting a fresh digest per
// echo at a single position must be counted once — the per-position voter
// bitmap caps the tally map (each entry carries an N-sized aggregator) at
// one entry per distinct first-seen digest per voter.
func TestEchoDigestFloodBounded(t *testing.T) {
	n := 4
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1})
	c.net.Run(500 * time.Millisecond)
	node := c.nodes[0]
	pos := types.Position{Round: node.Round() + 2, Source: 3}
	ep := c.net.Endpoint(1)
	for i := 0; i < 100; i++ {
		var d types.Hash
		d[0], d[1] = byte(i), byte(i>>8)
		ep.Send(0, signedEchoes(&c.keys[1], 1, types.EchoEntry{Pos: pos, Digest: d}))
	}
	c.net.Run(200 * time.Millisecond)
	in := c.nodes[0].instIfAny(pos)
	if in == nil {
		t.Fatal("flooded position has no instance")
	}
	// Voter 1's flood contributes at most one tally; honest echoes for the
	// real digest may add one more.
	if got := len(in.others); got > 1 {
		t.Fatalf("echo tally map grew to %d digests under one-voter flood", got)
	}
}

// TestPartialSynchronyGST: heavy random pre-GST delays must not break
// safety, and after GST the protocol commits normally (the DWOK partial
// synchrony model of Section 2).
func TestPartialSynchronyGST(t *testing.T) {
	n := 7
	keys := crypto.GenerateKeys(n, 21)
	reg := crypto.NewRegistry(keys, true)
	net := simnet.New(simnet.Config{
		N: n, Regions: simnet.EvenRegions(n, 5), Seed: 77,
		GST: 4 * time.Second, AsyncExtraMax: 2 * time.Second,
	})
	orders := make([][]types.Position, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		i := i
		id := types.NodeID(i)
		nodes[i] = New(Config{
			Self: id, N: n, Key: &keys[i], Reg: reg,
			Blocks:       &testSource{id: id, txCount: 1, txSize: 64},
			RoundTimeout: 900 * time.Millisecond,
			Deliver: func(cv CommittedVertex) {
				orders[i] = append(orders[i], cv.Vertex.Pos())
			},
		}, net.Endpoint(id), net.Clock(id))
		nodes[i].Start()
	}
	net.Run(4 * time.Second) // asynchronous period
	preGST := len(orders[0])
	net.Run(8 * time.Second) // stable period
	// Liveness after GST.
	if got := len(orders[0]) - preGST; got < 3*n {
		t.Fatalf("ordered only %d vertices after GST", got)
	}
	// Safety throughout.
	min := len(orders[0])
	for i := 1; i < n; i++ {
		if len(orders[i]) < min {
			min = len(orders[i])
		}
	}
	for i := 1; i < n; i++ {
		for j := 0; j < min; j++ {
			if orders[i][j] != orders[0][j] {
				t.Fatalf("divergence at %d between nodes 0 and %d", j, i)
			}
		}
	}
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
			c.net.Run(20 * time.Second)
			if got := c.minOrdered(mute); got < n {
				t.Fatalf("mode=%v seed=%d mute=%v: ordered only %d", mode, seed, mute, got)
			}
			c.checkConsistentOrder(mute)
		}
	}
}

// newTClusterML builds a cluster with multiple leaders per round.
func newTClusterML(t *testing.T, n, leaders int, o topt) *tcluster {
	t.Helper()
	if o.timeout == 0 {
		o.timeout = 3 * time.Second
	}
	cfg := simnet.Config{N: n, Seed: o.seed + 11}
	if o.uniform {
		cfg.LatencyRTTms = [][]float64{{100}}
		cfg.JitterPct = -1
	} else {
		cfg.Regions = simnet.EvenRegions(n, 5)
	}
	c := &tcluster{
		t: t, net: simnet.New(cfg),
		orders: make([][]CommittedVertex, n),
		keys:   crypto.GenerateKeys(n, 21), n: n,
	}
	c.reg = crypto.NewRegistry(c.keys, true)
	for i := 0; i < n; i++ {
		i := i
		id := types.NodeID(i)
		node := New(Config{
			Self: id, N: n, Mode: o.mode, Clans: o.clans,
			Key: &c.keys[i], Reg: c.reg,
			LeadersPerRound:  leaders,
			Blocks:           &testSource{id: id, txCount: 2, txSize: 64},
			RoundTimeout:     o.timeout,
			ReconfigDelay:    o.rdelay,
			LeaderReputation: o.rep,
			ReputationWindow: o.repWin,
			AnchorWait:       o.anchor,
			Deliver: func(cv CommittedVertex) {
				c.orders[i] = append(c.orders[i], cv)
			},
		}, c.net.Endpoint(id), c.net.Clock(id))
		c.nodes = append(c.nodes, node)
		if !o.mute[id] {
			node.Start()
		}
	}
	return c
}

// TestMultiLeaderLivenessAndSafety: multi-leader Sailfish (the paper's
// baseline implementation variant) must stay safe and live, with more direct
// commits per round than the single-leader configuration.
func TestMultiLeaderLivenessAndSafety(t *testing.T) {
	for _, leaders := range []int{2, 3} {
		c := newTClusterML(t, 7, leaders, topt{mode: ModeBaseline})
		c.net.Run(8 * time.Second)
		if got := c.minOrdered(nil); got < 3*7 {
			t.Fatalf("L=%d: ordered only %d", leaders, got)
		}
		c.checkConsistentOrder(nil)
		m := c.nodes[0].Metrics
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
		n := 8
		net := simnet.New(simnet.Config{N: n, Seed: 5, LatencyRTTms: [][]float64{{100}}, JitterPct: -1})
		keys := crypto.GenerateKeys(n, 21)
		reg := crypto.NewRegistry(keys, true)
		var latSum time.Duration
		var latN int
		for i := 0; i < n; i++ {
			id := types.NodeID(i)
			clk := net.Clock(id)
			nd := New(Config{
				Self: id, N: n, Key: &keys[i], Reg: reg,
				LeadersPerRound: leaders,
				Blocks:          &testSource{id: id, txCount: 1, txSize: 32},
				Deliver: func(cv CommittedVertex) {
					if cv.Block != nil && id == 0 {
						latSum += clk.Now() - time.Duration(cv.Block.CreatedAt)
						latN++
					}
				},
			}, net.Endpoint(id), clk)
			nd.Start()
		}
		net.Run(15 * time.Second)
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
	c := newTClusterML(t, 10, 2, topt{mode: ModeSingleClan, clans: [][]types.NodeID{clan}})
	c.net.Run(8 * time.Second)
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
	c := newTClusterML(t, n, 2, topt{mode: ModeBaseline, mute: mute, timeout: 700 * time.Millisecond})
	c.net.Run(25 * time.Second)
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
	c.net.Run(1 * time.Second)

	// Node 6 crafts a round-0 vertex... round 0 must have no edges, so use
	// a round-1 vertex with valid strong edges plus a phantom weak edge.
	var strong []types.VertexRef
	for _, cv := range []types.NodeID{0, 1, 2, 3, 4} {
		pos := types.Position{Round: 0, Source: cv}
		if in := c.nodes[0].instIfAny(pos); in != nil && in.vertex != nil {
			strong = append(strong, in.vertex.Ref())
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
		if in := c.nodes[0].instIfAny(pos); in != nil && in.vertex != nil {
			strong1 = append(strong1, in.vertex.Ref())
		}
	}
	if len(strong1) < 5 {
		t.Fatalf("setup: only %d round-1 vertices visible", len(strong1))
	}
	bad.StrongEdges = strong1[:5]
	bad.NormalizeEdges()
	sig := crypto.Sign(&c.keys[6], vertexCtx(new(ctxBuf), bad.DigestCached()))
	c.net.Endpoint(6).Broadcast(&types.ValMsg{Vertex: bad, Sig: sig})
	c.net.Run(15 * time.Second)

	// Liveness preserved.
	if got := c.minOrdered(mute); got < 2*n {
		t.Fatalf("ordered only %d with a phantom-edge attacker", got)
	}
	c.checkConsistentOrder(mute)
	// The poisoned vertex was never certified or ordered anywhere.
	for i := 0; i < 6; i++ {
		if in := c.nodes[i].instIfAny(bad.Pos()); in != nil {
			if in.delivered || in.hasCert {
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
	c := newTCluster(t, n, topt{mode: ModeBaseline, uniform: true, txCount: 1, timeout: 400 * time.Millisecond})
	c.net.Run(1 * time.Second)
	before := c.nodes[0].Round()
	if before < 3 {
		t.Fatalf("slow start: round %d", before)
	}
	// Partition {0,1} | {2,3}.
	for _, a := range []types.NodeID{0, 1} {
		for _, b := range []types.NodeID{2, 3} {
			c.net.Block(a, b, true)
			c.net.Block(b, a, true)
		}
	}
	c.net.Run(3 * time.Second) // several timeout periods of pure loss
	stalled := c.nodes[0].Round()
	if stalled > before+2 {
		t.Fatalf("impossible progress during total partition: %d -> %d", before, stalled)
	}
	// Heal and verify recovery.
	for _, a := range []types.NodeID{0, 1} {
		for _, b := range []types.NodeID{2, 3} {
			c.net.Block(a, b, false)
			c.net.Block(b, a, false)
		}
	}
	c.net.Run(6 * time.Second)
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
