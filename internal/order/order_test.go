package order

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"clanbft/internal/dag"
	"clanbft/internal/types"
)

// static returns an EpochOf for one epoch of members 0..n-1.
func static(n int) func(types.Round) *Epoch {
	ep := &Epoch{F: (n - 1) / 3}
	for i := 0; i < n; i++ {
		ep.Members = append(ep.Members, types.NodeID(i))
	}
	return func(types.Round) *Epoch { return ep }
}

// TestSlotSequence: slotSeq, slotPos and nextSlot agree with LeaderAt for
// every slot count, and the first index past a round's anchors is slot 0 of
// the next round — with the full member set and with one member demoted.
func TestSlotSequence(t *testing.T) {
	for _, n := range []int{4, 9} {
		for _, leaders := range []int{1, 2, 3, n} {
			for _, demote := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/L=%d/demoted=%v", n, leaders, demote), func(t *testing.T) {
					o := New(Config{N: n, LeadersPerRound: leaders, Reputation: true,
						ReconfigDelay: 4, ReputationWindow: 8, EpochOf: static(n)}, dag.New(n))
					if demote && !o.Offense(1, 0) { // member 1 sits out rounds [5, 13)
						t.Fatal("offense not charged")
					}
					for r := types.Round(0); r < 20; r++ {
						want := min(leaders, len(o.Eligible(r)))
						for k := 0; k < want; k++ {
							pos := types.Position{Round: r, Source: o.LeaderAt(r, k)}
							seq := o.slotSeq(pos, k)
							if back := o.slotPos(seq); back != pos {
								t.Fatalf("round %d slot %d: slotPos(slotSeq) = %v, want %v", r, k, back, pos)
							}
							if o.nextSlot(seq) != seq {
								t.Fatalf("round %d slot %d: nextSlot moved an existing slot", r, k)
							}
						}
						past := uint64(r)*uint64(n) + uint64(want)
						if want < n && o.nextSlot(past) != uint64(r+1)*uint64(n) {
							t.Fatalf("round %d: nextSlot(%d) = %d, want slot 0 of round %d", r, past, o.nextSlot(past), r+1)
						}
					}
				})
			}
		}
	}
}

// genDAG builds a seeded n=4 DAG of the given rounds: every vertex strong-edges
// 2f+1 = 3 vertices of the round below, and a round may lack one position (a
// member that is down or slow), so that some slots have no vertex and some
// vertices miss a vote quorum. The shapes obey the rule validateVertex
// enforces: a primary (member r mod 4 of round r) without an edge to the
// previous primary carries a no-vote certificate, 2f+1 members' word that
// they do not vote for it — so at most f of the round's vertices edge it.
func genDAG(rng *rand.Rand, rounds int) [][]*types.Vertex {
	const n = 4
	out := make([][]*types.Vertex, rounds)
	for r := 0; r < rounds; r++ {
		absent := -1
		if rng.Intn(3) == 0 {
			absent = rng.Intn(n)
		}
		// Which vertex of the round below each source leaves out (-1: none,
		// the round below having only three). A primary that leaves out the
		// previous primary makes it a no-vote round: f voters at most.
		skips := make([]int, n)
		var below []*types.Vertex
		prevPrimary := -1
		if r > 0 {
			below = out[r-1]
			for i, p := range below {
				if int(p.Source) == (r-1)%n {
					prevPrimary = i
				}
			}
		}
		for s := range skips {
			skips[s] = -1
			if len(below) == n {
				skips[s] = rng.Intn(n)
			}
		}
		if primary := r % n; prevPrimary >= 0 && skips[primary] == prevPrimary {
			voter := rng.Intn(n) // the one vertex that may still edge it
			for s := range skips {
				if s != voter {
					skips[s] = prevPrimary
				}
			}
			skips[primary] = prevPrimary
		}
		for s := 0; s < n; s++ {
			if s == absent {
				continue
			}
			v := &types.Vertex{Round: types.Round(r), Source: types.NodeID(s)}
			for i, p := range below {
				if i != skips[s] {
					v.StrongEdges = append(v.StrongEdges, types.VertexRef{Round: p.Round, Source: p.Source})
				}
			}
			out[r] = append(out[r], v)
		}
	}
	return out
}

// views calls fn with every ancestor-closed subset of the DAG, as a list of
// vertices in (round, source) order.
func views(rounds [][]*types.Vertex, fn func([]*types.Vertex)) {
	var rec func(r int, in map[types.Position]bool, acc []*types.Vertex)
	rec = func(r int, in map[types.Position]bool, acc []*types.Vertex) {
		var cand []*types.Vertex
		if r < len(rounds) {
			for _, v := range rounds[r] {
				ok := true
				for _, e := range v.StrongEdges {
					ok = ok && in[e.Pos()]
				}
				if ok {
					cand = append(cand, v)
				}
			}
		}
		if len(cand) == 0 {
			fn(acc)
			return
		}
		for mask := 0; mask < 1<<len(cand); mask++ {
			next := map[types.Position]bool{}
			sub := slices.Clip(acc)
			for i, v := range cand {
				if mask&(1<<i) != 0 {
					next[v.Pos()] = true
					sub = append(sub, v)
				}
			}
			if len(next) == 0 {
				fn(acc)
				continue
			}
			rec(r+1, next, sub)
		}
	}
	rec(0, map[types.Position]bool{}, nil)
}

// ordered reports whether a fate orders its slot. Direct and Indirect are
// the same fate seen from two views: whether this party saw the slot's
// quorum itself is its own business.
func ordered(f Fate) bool { return f == Direct || f == Indirect }

// outcome is what one party ordered: the sequence and every decided fate.
type outcome struct {
	seq   []types.Position
	fates map[types.Position]Fate
}

// orderView runs an Orderer the way a node feeds it: the proposals it has
// only seen cast their votes first (a VAL arrives before its RBC delivers),
// then the delivered view is voted and inserted in round order, Advance
// running whenever a call says the cursor may move.
func orderView(leaders int, view, seenOnly []*types.Vertex) outcome {
	d := dag.New(4)
	o := New(Config{N: 4, LeadersPerRound: leaders, EpochOf: static(4)}, d)
	out := outcome{fates: map[types.Position]Fate{}}
	emit := func(s Step) {
		out.fates[s.Slot] = s.Fate
		for _, v := range s.History {
			out.seq = append(out.seq, v.Pos())
		}
	}
	advance := func() { o.Advance(emit) }
	for _, v := range seenOnly {
		o.Vote(v, advance)
	}
	for _, v := range view {
		o.Vote(v, advance)
		if err := d.Insert(v); err != nil {
			panic(err)
		}
		if o.Inserted(v.Pos()) {
			advance()
		}
	}
	return out
}

// TestModelPartialViewsAgree is the small-scope model test of the commit
// rule. For seeded n=4 DAGs of five and six rounds, it orders every
// ancestor-closed view of each DAG — delivered alone, with every other
// vertex seen as a proposal, and with a seeded half of them seen — and
// checks each against the full DAG: its sequence must be a prefix of the
// full DAG's, and every fate it decided must be decided the same way there
// (ordered or passed, and passed for the same reason).
// Two views then agree with each other: both sequences are prefixes of one,
// and a fate both decide is the full DAG's. A rule that decides from what a
// party happens to lack — skipping a slot for want of a local quorum, say —
// fails at once.
func TestModelPartialViewsAgree(t *testing.T) {
	checked, empty := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rounds := genDAG(rng, 5+int(seed%2))
		var all []*types.Vertex
		for _, rv := range rounds {
			all = append(all, rv...)
		}
		for _, leaders := range []int{4, 2, 1} {
			full := orderView(leaders, all, nil)
			if len(full.seq) == 0 {
				empty++ // a missing primary can leave a short DAG undecided
			}
			views(rounds, func(view []*types.Vertex) {
				in := map[types.Position]bool{}
				for _, v := range view {
					in[v.Pos()] = true
				}
				var rest, half []*types.Vertex
				for _, v := range all {
					if !in[v.Pos()] {
						rest = append(rest, v)
						if rng.Intn(2) == 0 {
							half = append(half, v)
						}
					}
				}
				for _, seen := range [][]*types.Vertex{nil, half, rest} {
					got := orderView(leaders, view, seen)
					checked++
					if len(got.seq) > len(full.seq) || !slices.Equal(got.seq, full.seq[:len(got.seq)]) {
						t.Fatalf("seed %d L=%d view of %d (+%d seen): order %v is not a prefix of the full DAG's %v",
							seed, leaders, len(view), len(seen), got.seq, full.seq)
					}
					for slot, f := range got.fates {
						if ff, ok := full.fates[slot]; !ok || ordered(ff) != ordered(f) || (!ordered(f) && ff != f) {
							t.Fatalf("seed %d L=%d view of %d (+%d seen): slot %v is %v here, %v on the full DAG",
								seed, leaders, len(view), len(seen), slot, f, ff)
						}
					}
				}
			})
		}
	}
	if empty > 20 {
		t.Fatalf("%d of 120 full DAGs ordered nothing: the shapes no longer exercise the rule", empty)
	}
	t.Logf("%d views ordered; %d of 120 full DAGs ordered nothing", checked, empty)
}

// TestAdvanceWaitsForDecidingVertex: with four anchors a round, the cursor's
// slot, round 0's primary (0,0), has no quorum of its own and is decided by
// round 2's primary (2,2), quorate on seen proposals but not yet in the DAG.
// The cursor waits for that vertex as it would for an anchor's history:
// other insertions do not wake it, its insertion does and orders (0,0)
// through it, and a quorum on a slot between the two replaces the wait, since
// such a slot may decide first.
func TestAdvanceWaitsForDecidingVertex(t *testing.T) {
	const n = 4
	vx := func(r types.Round, s types.NodeID, below ...types.NodeID) *types.Vertex {
		v := &types.Vertex{Round: r, Source: s}
		for _, b := range below {
			v.StrongEdges = append(v.StrongEdges, types.VertexRef{Round: r - 1, Source: b})
		}
		return v
	}
	d := dag.New(n)
	o := New(Config{N: n, LeadersPerRound: n, EpochOf: static(n)}, d)
	var steps []Step
	emit := func(s Step) { steps = append(steps, s) }
	nop := func() {}
	insert := func(v *types.Vertex) bool {
		o.Vote(v, nop)
		if err := d.Insert(v); err != nil {
			t.Fatal(err)
		}
		return o.Inserted(v.Pos())
	}
	for s := types.NodeID(0); s < n; s++ {
		insert(vx(0, s))
	}
	// Only (1,1) votes for (0,0); the path (2,2) → (1,1) → (0,0) orders it.
	insert(vx(1, 0, 1, 2, 3))
	insert(vx(1, 1, 0, 1, 2))
	insert(vx(1, 2, 1, 2, 3))
	insert(vx(1, 3, 1, 2, 3))
	if o.Advance(emit) || len(steps) != 0 {
		t.Fatalf("before any round 2 quorum: waiting or ordered %v", steps)
	}
	// Round 2's proposals are seen before they are delivered, all but (2,3).
	decider := vx(2, 2, 0, 1, 2)
	r2 := []*types.Vertex{decider, vx(2, 0, 0, 1, 3), vx(2, 1, 0, 2, 3), vx(2, 3, 1, 2, 3)}
	for _, v := range r2[:3] {
		o.Vote(v, nop)
	}
	for _, s := range []types.NodeID{0, 2, 3} {
		o.Vote(vx(3, s, 0, 1, 2), nop)
	}
	if !o.Advance(emit) {
		t.Fatal("Advance does not wait for the deciding vertex (2,2)")
	}
	if insert(r2[1]) {
		t.Fatal("inserting (2,0) woke a cursor waiting for (2,2)")
	}
	// (2,3) brings (1,1), (1,2) and (1,3) to their quorums: slots between
	// the cursor and the decider, so each replaces the wait.
	moved := 0
	o.Vote(r2[3], func() { moved++ })
	if moved != 3 || len(o.wait) != 0 {
		t.Fatalf("quorums between cursor and decider: moved %d times (want 3), wait %v left", moved, o.wait)
	}
	if !o.Advance(emit) {
		t.Fatal("Advance does not derive the wait for (2,2) afresh")
	}
	for _, v := range r2[2:] {
		if insert(v) {
			t.Fatalf("inserting %v woke a cursor waiting for (2,2)", v.Pos())
		}
	}
	if !insert(decider) {
		t.Fatal("inserting the deciding vertex (2,2) does not wake the cursor")
	}
	if o.Advance(emit) {
		t.Fatal("still waiting with (2,2) in the DAG")
	}
	if len(steps) == 0 || steps[0].Slot != (types.Position{Round: 0, Source: 0}) || steps[0].Fate != Indirect {
		t.Fatalf("first step %v, want slot (0,0) ordered indirectly", steps)
	}
}
