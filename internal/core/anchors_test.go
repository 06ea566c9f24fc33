package core

import (
	"fmt"
	"testing"
	"time"

	"clanbft/internal/types"
)

// Tests for the every-vertex-an-anchor ordering path: the stride-1 schedule,
// the per-round slot space, the 3-delta latency it buys, and the two things
// that keep it cheap when a member is down or late (slot liveness, the hold
// that does not wait for absentees).

// checkSchedule asserts, for every round in [lo, hi): the round's slots name
// distinct eligible members and number min(L, M); SlotIndex agrees with
// LeaderAt; the primary is the member the L=1 rotation would pick; and over
// any M consecutive rounds every eligible member is primary exactly once.
// (internal/order's TestSlotSequence checks the slot numbering behind it.)
func checkSchedule(t *testing.T, nd *Node, lo, hi types.Round) {
	t.Helper()
	for r := lo; r < hi; r++ {
		ms := nd.order.Eligible(r)
		M := len(ms)
		want := min(nd.cfg.LeadersPerRound, M)
		if got := nd.order.Anchors(r); got != want {
			t.Fatalf("round %d: %d anchors, want min(L=%d, M=%d)", r, got, nd.cfg.LeadersPerRound, M)
		}
		if got, single := nd.order.Leader(r), ms[uint64(r)%uint64(M)]; got != single {
			t.Fatalf("round %d: primary %d, the single-leader rotation picks %d", r, got, single)
		}
		seen := map[types.NodeID]bool{}
		for k := 0; k < want; k++ {
			src := nd.order.LeaderAt(r, k)
			if seen[src] {
				t.Fatalf("round %d: slots %v name member %d twice", r, seen, src)
			}
			seen[src] = true
			pos := types.Position{Round: r, Source: src}
			if idx := nd.order.SlotIndex(pos); idx != k {
				t.Fatalf("round %d slot %d: SlotIndex(%v) = %d", r, k, pos, idx)
			}
		}
		for _, m := range ms {
			if !seen[m] && nd.order.SlotIndex(types.Position{Round: r, Source: m}) >= 0 {
				t.Fatalf("round %d: member %d has a slot index but no slot", r, m)
			}
		}
		if r+types.Round(M) <= hi && sameEligible(nd, r, r+types.Round(M)) {
			prim := map[types.NodeID]int{}
			for q := r; q < r+types.Round(M); q++ {
				prim[nd.order.Leader(q)]++
			}
			for _, m := range ms {
				if prim[m] != 1 {
					t.Fatalf("rounds [%d,%d): member %d is primary %d times, want once (%v)", r, r+types.Round(M), m, prim[m], prim)
				}
			}
		}
	}
}

// sameEligible reports whether the eligible set is constant over [lo, hi).
func sameEligible(nd *Node, lo, hi types.Round) bool {
	ref := nd.order.Eligible(lo)
	for r := lo + 1; r < hi; r++ {
		ms := nd.order.Eligible(r)
		if len(ms) != len(ref) || ms[0] != ref[0] || ms[len(ms)-1] != ref[len(ref)-1] {
			return false
		}
	}
	return true
}

// TestPrimaryRotationVisitsEveryMember is the regression test for the
// schedule: at the parent, slot k of round r was member (r*L+k) mod M, which
// pins the primary to a subgroup whenever gcd(L, M) != 1 (L = M: member 0
// forever; L = 3, n = 9: only 0, 3 and 6). With slot k at (r+k) mod M the
// primary is the L=1 rotation for every L, and a demotion or a smaller epoch
// shrinks the round's slot count instead of wrapping two slots onto one
// member.
func TestPrimaryRotationVisitsEveryMember(t *testing.T) {
	for _, n := range []int{4, 9} {
		for _, leaders := range []int{1, 2, 3, 0} { // 0 = every eligible member
			t.Run(fmt.Sprintf("n=%d/L=%d", n, leaders), func(t *testing.T) {
				_, nd := oneNode(t, n, 0, topt{leaders: leaders})
				if leaders == 0 && nd.cfg.LeadersPerRound != n {
					t.Fatalf("zero LeadersPerRound resolved to %d, want all %d", nd.cfg.LeadersPerRound, n)
				}
				checkSchedule(t, nd, 0, types.Round(4*n))
			})
		}
	}
	t.Run("demoted", func(t *testing.T) {
		for _, leaders := range []int{1, 2, 0} {
			_, nd := oneNode(t, 7, 0, topt{leaders: leaders, rep: true})
			// Round 2's primary, member 2, timed out, and the evidence was
			// ordered under the anchor of round 0: member 2 sits out rounds
			// [33, 97) — ReconfigDelay 32, ReputationWindow 64. The eligible
			// set is six members there and seven on either side.
			if !nd.order.Offense(2, 0) {
				t.Fatal("offense not charged")
			}
			checkSchedule(t, nd, 0, 130)
			if got := len(nd.order.Eligible(40)); got != 6 {
				t.Fatalf("L=%d: %d eligible at round 40, want 6", leaders, got)
			}
			if nd.order.SlotIndex(types.Position{Round: 40, Source: 2}) >= 0 {
				t.Fatalf("L=%d: the demoted member holds a slot", leaders)
			}
		}
	})
	t.Run("epoch smaller than N", func(t *testing.T) {
		for _, leaders := range []int{1, 2, 0} {
			_, nd := oneNode(t, 7, 0, topt{leaders: leaders, members: []types.NodeID{0, 2, 3, 5, 6}})
			checkSchedule(t, nd, 0, 40)
			if got, want := nd.order.Anchors(3), min(nd.cfg.LeadersPerRound, 5); got != want {
				t.Fatalf("L=%d: %d anchors in a five-member epoch, want %d", leaders, got, want)
			}
		}
	})
}

// latencyCluster runs n nodes on uniform links (one-way delay delta, no
// jitter, zero CPU cost) and returns, per node, the OrderedAt-ProposedAt of
// its OWN vertices from round warm on, plus the nodes for inspection.
func latencyCluster(t *testing.T, n, leaders int, delta, run time.Duration, warm types.Round, mute map[types.NodeID]bool) ([][]time.Duration, []*Node) {
	t.Helper()
	c := newTCluster(t, n, topt{leaders: leaders, uniform: true, delta: delta, mute: mute,
		timeout: 700 * time.Millisecond, txCount: 1, txSize: 32})
	c.run(run)
	lat := make([][]time.Duration, n)
	for i, order := range c.orders {
		for _, cv := range order {
			if cv.Vertex.Source == types.NodeID(i) && cv.Vertex.Round >= warm {
				lat[i] = append(lat[i], cv.OrderedAt-cv.ProposedAt)
			}
		}
	}
	return lat, c.nodes
}

// TestEveryVertexCommitsInThreeDelta is the simnet latency gate: with every
// member an anchor, each vertex is ordered at its own proposer one RBC plus
// one delay — 3 delta — after it was proposed; at the parent only the
// leader's was, and the other n-1 waited for the next round's leader
// (5 delta). Fault-free, uniform 10 ms one-way links.
func TestEveryVertexCommitsInThreeDelta(t *testing.T) {
	const delta = 10 * time.Millisecond
	limit := delta * 32 / 10 // 3.2 link delays
	for _, n := range []int{4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			lat, nodes := latencyCluster(t, n, 0, delta, 3*time.Second, 5, nil)
			for i, ls := range lat {
				if len(ls) < 50 {
					t.Fatalf("node %d ordered only %d of its own vertices", i, len(ls))
				}
				for k, d := range ls {
					if d > limit {
						t.Fatalf("node %d: own vertex #%d ordered %v after its proposal, limit %v (3.2 delta)", i, k, d, limit)
					}
				}
			}
			m := nodes[0].MetricsSnapshot()
			if m.IndirectCommits != 0 || m.SlotsSkipped != 0 {
				t.Fatalf("fault-free run resolved slots off the direct path: %d indirect, %d skipped", m.IndirectCommits, m.SlotsSkipped)
			}
			if rounds := int(nodes[0].Round()); m.DirectCommits < (rounds-3)*n {
				t.Fatalf("%d direct slots over %d rounds, want about %d a round", m.DirectCommits, rounds, n)
			}
			// The kept single-leader path, for contrast: non-leader vertices
			// wait for the next round's leader.
			single, _ := latencyCluster(t, n, 1, delta, 3*time.Second, 5, nil)
			slow := 0
			for _, ls := range single {
				for _, d := range ls {
					if d > 4*delta {
						slow++
					}
				}
			}
			if slow == 0 {
				t.Fatal("pinned L=1 run has no vertex past 4 delta: the contrast this gate rests on is gone")
			}
		})
	}
}

// TestCrashedMemberSlotsGoQuiet: a member that never proposes costs its first
// few slots a two-round wait each (there is no early skip — decideSlot) and
// then nothing: its slots stop being live, the hold does not wait for it, and
// everyone else's vertices are back on the 3-delta path. Its turn as primary
// still times out, as in any mode.
func TestCrashedMemberSlotsGoQuiet(t *testing.T) {
	const delta = 10 * time.Millisecond
	n := 7
	mute := map[types.NodeID]bool{6: true}
	lat, nodes := latencyCluster(t, n, 0, delta, 12*time.Second, 20, mute)
	m := nodes[0].MetricsSnapshot()
	if m.Timeouts == 0 {
		t.Fatal("the muted member's primary rounds never timed out")
	}
	// Every round passes one slot of the muted member; nearly all of them
	// without waiting. Indirect resolutions happen before the member is
	// marked late and after each of its primary turns (the primary's slot is
	// always live), not once a round.
	rounds := int(nodes[0].Round())
	if m.SlotsSkipped < rounds/2 {
		t.Fatalf("%d slots passed over %d rounds, want about one a round", m.SlotsSkipped, rounds)
	}
	if m.IndirectCommits > rounds/4 {
		t.Fatalf("%d indirect resolutions over %d rounds: the muted member's slots are still being waited for", m.IndirectCommits, rounds)
	}
	// Holds do begin — the sixth live vertex is handled an instant after the
	// quorum forms — but they do not last: round 0 waits out anchorWait for
	// the absentee (nothing is known about it yet), no later round does.
	if held := nodes[0].PipelineSnapshot().Hist("order.anchor_hold"); held.Sum > 2*anchorWait {
		t.Fatalf("%d holds over %d rounds lasted %v in all, cap %v each: the hold waits for the absentee",
			held.Count, rounds, held.Sum, anchorWait)
	}
	limit := delta * 32 / 10
	for i, ls := range lat {
		if mute[types.NodeID(i)] {
			continue
		}
		fast := 0
		for _, d := range ls {
			if d <= limit {
				fast++
			}
		}
		// Rounds around a primary timeout are slow for everybody; the rest
		// must be on the fast path.
		if fast*10 < len(ls)*6 {
			t.Fatalf("node %d: only %d of %d own vertices ordered within 3.2 delta", i, fast, len(ls))
		}
	}
}

// TestShrunkenEligibleSetOrders: the eligible set is smaller than N — an
// epoch with fewer members than the universe, then a reputation demotion on
// top — and every member is an anchor. At the parent a constant slot count
// wrapped two slots onto one vertex here and the drain spun. Asserts
// progress, the demotion, cross-node order equality, and (by watchdog) that
// no handler spins.
func TestShrunkenEligibleSetOrders(t *testing.T) {
	for _, tc := range []struct {
		n       int
		members []types.NodeID
		mute    types.NodeID
	}{
		{5, []types.NodeID{0, 1, 2, 3}, 3},
		{7, []types.NodeID{0, 1, 2, 4, 6}, 4},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			mute := map[types.NodeID]bool{tc.mute: true}
			c := newTCluster(t, tc.n, topt{
				mode: ModeBaseline, uniform: true, txCount: 1, mute: mute,
				timeout: 400 * time.Millisecond,
				members: tc.members, rep: true, repWin: 64, rdelay: 8,
			})
			done := make(chan struct{})
			go func() {
				c.run(20 * time.Second)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				t.Fatal("simulation did not finish: a handler is spinning")
			}
			if got := c.minOrdered(mute); got < 10*len(tc.members) {
				t.Fatalf("ordered only %d vertices", got)
			}
			c.checkConsistentOrder(mute)
			nd := c.nodes[0]
			if nd.MetricsSnapshot().ReputationOffenses == 0 {
				t.Fatal("the muted member was never demoted")
			}
			// Somewhere below the commit horizon the eligible set is the
			// member list minus the offender, and the round has exactly that
			// many slots, all distinct.
			demoted := false
			for r := types.Round(0); r < nd.MetricsSnapshot().LastOrderedRound; r++ {
				if len(nd.order.Eligible(r)) == len(tc.members)-1 {
					demoted = true
					if got := nd.order.Anchors(r); got != len(tc.members)-1 {
						t.Fatalf("round %d: %d anchors with %d eligible", r, got, len(tc.members)-1)
					}
				}
			}
			if !demoted {
				t.Fatal("no round ran on the shrunken eligible set")
			}
			checkSchedule(t, nd, 0, nd.MetricsSnapshot().LastOrderedRound)
			// Observers (universe parties outside the epoch) follow the same
			// order.
			for i := 0; i < tc.n; i++ {
				if !mute[types.NodeID(i)] && len(c.orders[i]) == 0 {
					t.Fatalf("node %d ordered nothing", i)
				}
			}
		})
	}
}

// TestOrderedVerticesEmitBehindOpenFate: with an anchor in every slot there is
// nearly always a later commit queued behind a slot whose fate is still open,
// so a drain pass usually ends on a hold. What it ordered before the hold must
// still reach Deliver (at the parent drainOut ran only when the queue emptied,
// and a geo-distributed run delivered nothing at all).
func TestOrderedVerticesEmitBehindOpenFate(t *testing.T) {
	n := 10
	c := newTCluster(t, n, topt{mode: ModeBaseline, txCount: 1}) // five regions
	c.run(8 * time.Second)
	for i, nd := range c.nodes {
		if nd.MetricsSnapshot().IndirectCommits == 0 && i == 0 {
			t.Log("no slot went indirect: the geography no longer exercises the hold path")
		}
		if got := nd.ord.out.Len(); got != 0 {
			t.Fatalf("node %d holds %d ordered vertices back", i, got)
		}
		if len(c.orders[i]) != nd.MetricsSnapshot().VerticesOrdered {
			t.Fatalf("node %d delivered %d of %d ordered vertices", i, len(c.orders[i]), nd.MetricsSnapshot().VerticesOrdered)
		}
		if len(c.orders[i]) < 20*n {
			t.Fatalf("node %d delivered only %d vertices", i, len(c.orders[i]))
		}
	}
	c.checkConsistentOrder(nil)
}

// TestAnchorFenceFloor measures what anchorFenceFloor asserts: with every
// member an anchor and f members crashing mid-run, two apart in the rotation
// (each slot 0 the indirect rule looks to is the next crashed member's), the
// cluster keeps ordering at ReconfigDelay = 2f+2 and stops for good a little
// below it — the throttle then forbids the rounds whose proposals would move
// the commit frontier. fill rejects such a value instead of running into that.
func TestAnchorFenceFloor(t *testing.T) {
	run := func(n int, crash []types.NodeID, d types.Round, onset time.Duration) types.Round {
		c := newTCluster(t, n, topt{timeout: 300 * time.Millisecond, uniform: true})
		for _, nd := range c.nodes {
			nd.cfg.ReconfigDelay = d // below the floor fill enforces, on purpose
		}
		c.run(onset)
		for _, m := range crash {
			c.nodes[m].Stop()
		}
		c.run(20 * time.Second)
		return c.nodes[0].Round()
	}
	for _, tc := range []struct {
		n      int
		crash  []types.NodeID
		stalls types.Round // largest ReconfigDelay measured to stall
	}{
		{5, []types.NodeID{4}, 2},
		{7, []types.NodeID{1, 3}, 4},
		{10, []types.NodeID{1, 3, 5}, 5},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			floor := anchorFenceFloor(tc.n)
			if tc.stalls >= floor {
				t.Fatalf("floor %d does not clear the measured stall at %d", floor, tc.stalls)
			}
			low, high := types.Round(1<<30), types.Round(1<<30)
			onsets := 4
			if testing.Short() {
				onsets = 1
			}
			for k := 0; k < onsets; k++ {
				onset := 2*time.Second + time.Duration(k)*37*time.Millisecond
				high = min(high, run(tc.n, tc.crash, floor, onset))
				if !testing.Short() {
					low = min(low, run(tc.n, tc.crash, tc.stalls, onset))
				}
			}
			if testing.Short() {
				t.Logf("round %d reached at ReconfigDelay %d", high, floor)
			} else {
				t.Logf("rounds reached, worst of %d crash onsets: %d at ReconfigDelay %d, %d at %d", onsets, high, floor, low, tc.stalls)
			}
			if high < 100 {
				t.Fatalf("at the floor (ReconfigDelay %d) the cluster reached round %d only", floor, high)
			}
			if !testing.Short() && low > 40 {
				t.Fatalf("ReconfigDelay %d reached round %d: no stall, the floor is not measured any more", tc.stalls, low)
			}
		})
	}
	mustPanic := func(name string, cfg Config) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: fill accepted the configuration", name)
			}
		}()
		cfg.fill()
	}
	mustPanic("n=7 D=5", Config{N: 7, Params: Params{ReconfigDelay: 5}})
	mustPanic("n=10 L=2 D=7", Config{N: 10, LeadersPerRound: 2, Params: Params{ReconfigDelay: 7}})
	for _, ok := range []Config{
		{N: 7, Params: Params{ReconfigDelay: 6}},
		{N: 10, LeadersPerRound: 1, Params: Params{ReconfigDelay: 2}}, // the one-round reach has no such lag
	} {
		ok.fill()
	}
	big := Config{N: 100}
	big.fill()
	if want := types.Round(68); big.ReconfigDelay != want {
		t.Fatalf("N=100 default ReconfigDelay %d, want 2f+2 = %d", big.ReconfigDelay, want)
	}
	small := Config{N: 4}
	small.fill()
	if small.ReconfigDelay != 32 {
		t.Fatalf("N=4 default ReconfigDelay %d, want 32", small.ReconfigDelay)
	}
}

// TestAnchorHoldKeepsSlotsDirect runs the anchor hold on 50 ms links that
// vary by 2.5 ms either way: without it a proposal would go out on the first
// 2f+1 arrivals plus the primary, so the stragglers' vertices would miss its
// vote and most members would be found late and sit out (slotLive). With it
// the hold engages and every slot stays on the direct path.
func TestAnchorHoldKeepsSlotsDirect(t *testing.T) {
	window := 20 * time.Second
	if testing.Short() {
		window = 8 * time.Second
	}
	c := newTCluster(t, 7, topt{timeout: 700 * time.Millisecond, uniform: true, jitter: 0.05})
	c.run(window)
	c.checkConsistentOrder(nil)
	if got := c.minOrdered(nil); got < 100 {
		t.Fatalf("ordered only %d vertices", got)
	}
	m, held := c.nodes[0].MetricsSnapshot(), c.nodes[0].PipelineSnapshot().Hist("order.anchor_hold").Count
	t.Logf("%d holds, slots %d direct / %d indirect / %d skipped", held, m.DirectCommits, m.IndirectCommits, m.SlotsSkipped)
	if held == 0 {
		t.Fatal("the hold never engaged on a jittered network")
	}
	if miss := m.IndirectCommits + m.SlotsSkipped; miss*20 > m.DirectCommits {
		t.Fatalf("%d slots left the direct path against %d direct", miss, m.DirectCommits)
	}
}
