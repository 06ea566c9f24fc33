// Package order is the Sailfish commit rule and total order as a function
// of the DAG. Its inputs are the vertices inserted into the DAG, the
// proposals seen so far (a proposal is the implicit vote of its strong
// edges, counted on the first message of its RBC, before it delivers), the
// epoch table and the committed timeout evidence that drives the reputation
// schedule. Its output is, slot by slot in sequence, each anchor slot's fate
// and each ordered anchor's causal history. It reads no clock and sends
// nothing: internal/core feeds it, paces rounds around it and acts on what
// it orders — exactly the separation the paper relies on when it says clans
// slot into Sailfish without touching its commit logic.
//
// Ordering is one cursor over the slot sequence (round-major, slot-minor; see
// slotSeq). Advance decides the slot the cursor stands on, reading the
// schedule as it stands at that moment, and then orders the slot, passes it,
// or holds. Between runs it keeps the tallies, the cursor and the highest
// slot a quorum was reported for — no queue of commits whose cached slot
// numbers a schedule change could make stale.
package order

import (
	"clanbft/internal/dag"
	"clanbft/internal/types"
)

// Epoch is what the commit rule reads of one epoch: its number, the first
// round it owns, its members in ascending order and its f.
type Epoch struct {
	Num     uint64
	Start   types.Round
	Members []types.NodeID
	F       int
}

// Config parameterizes an Orderer.
type Config struct {
	// N is the universe size: the slot stride and the width of the tallies.
	N int
	// LeadersPerRound caps a round's anchor slots (see Anchors). 1 is
	// single-leader Sailfish; every count is ordered by the same rule
	// (decideSlot).
	LeadersPerRound int
	// Reputation turns committed offenses (Offense) into demotions; off,
	// the rotation is static.
	Reputation bool
	// An offense ordered under the anchor of round C demotes its offender
	// for rounds [C+ReconfigDelay+1, C+ReconfigDelay+1+ReputationWindow).
	ReconfigDelay    types.Round
	ReputationWindow types.Round
	// EpochOf returns the epoch owning round r.
	EpochOf func(r types.Round) *Epoch
}

// Fate is what became of an anchor slot.
type Fate uint8

const (
	// Open: not decided yet; the cursor holds on it.
	Open Fate = iota
	// Direct: ordered on its own quorum of 2f+1 votes.
	Direct
	// Indirect: ordered by a strong path from the anchor that decides it.
	Indirect
	// Skipped: passed; no party can ever observe its quorum.
	Skipped
	// NotLive: passed; its holder was found late (see slotLive).
	NotLive
)

func (f Fate) String() string {
	return [...]string{"open", "direct", "indirect", "skipped", "not-live"}[f]
}

// Step is one slot the cursor left behind.
type Step struct {
	Slot types.Position
	Fate Fate
	// History is, for a Direct or Indirect slot, the anchor's causal history
	// not ordered before it, in the total order: ascending round, then
	// source. It is the DAG's scratch, valid until the next step.
	History []*types.Vertex
}

// ledger is everything the orderer tracks about round r's anchors. The vote
// tally is kept per source, not per slot, and is updated once per seen round
// r+1 proposal from that proposal's strong edges: which sources are anchors
// is a lookup at read time (SlotIndex), so a schedule change re-reads the
// tally instead of recounting it, and a slot's direct verdict is one
// comparison, votes[source] >= 2f+1. Each round r+1 member is counted at most
// once (counted), so votes[s] only grows — a quorum, once observed, stays.
//
// ordVotes is the same tally taken over ORDERED round r+1 vertices only — a
// function of the total-order prefix, hence identical at every party at the
// same point of the slot sequence, which the seen tally is not. judgeLate
// reads it.
type ledger struct {
	votes    []uint16 // votes[s]: seen round r+1 proposals with a strong edge to (r, s)
	ordVotes []uint16 // ordVotes[s]: ordered round r+1 vertices with a strong edge to (r, s)
	counted  []byte   // bitmap: round r+1 sources already tallied
	entered  bool     // the cursor has reached this round (judgeLate)
}

// Orderer decides slot fates and orders anchors over one DAG. It is not safe
// for concurrent use; its owner serializes every call.
type Orderer struct {
	cfg Config
	dag *dag.DAG

	// anchors is the per-round ledger; free recycles the ones GC retires.
	// hi is the highest round any seen proposal voted in.
	anchors map[types.Round]*ledger
	free    []*ledger
	hi      types.Round

	// cursor is the first slot whose fate is still open: every slot below
	// it has been ordered or passed, in sequence.
	cursor uint64
	// memo holds the fates decided since the last Advance began. end is one
	// past the highest slot a quorum was reported for (0: none) when
	// endKnown: Vote raises it slot by slot, in the order it reports them.
	// Both are read under the schedule and tallies they were derived from,
	// so whatever moves those drops them (forget).
	memo     map[uint64]Fate
	end      uint64
	endKnown bool
	// wait holds the ancestors not yet in the DAG of the anchor at slot
	// waitSeq, the next to be ordered: Advance resumes once they are in.
	wait    map[types.Position]bool
	waitSeq uint64
	// late[s] is 1 + the last round member s's vertex was judged late (0 =
	// never): judgeLate writes it, slotLive reads it.
	late []types.Round
	// work counts structural steps outside the DAG walks: edges tallied and
	// slot fates evaluated (see Work).
	work uint64

	rep reputation
}

// New returns an Orderer over d, with its cursor at slot 0.
func New(cfg Config, d *dag.DAG) *Orderer {
	return &Orderer{
		cfg:      cfg,
		dag:      d,
		endKnown: true,
		anchors:  map[types.Round]*ledger{},
		memo:     map[uint64]Fate{},
		wait:     map[types.Position]bool{},
		late:     make([]types.Round, cfg.N),
		rep:      reputation{offenseSeen: map[types.Round]bool{}},
	}
}

// quorum is the 2f+1 threshold for votes cast at round r.
func (o *Orderer) quorum(r types.Round) int { return 2*o.cfg.EpochOf(r).F + 1 }

// ledgerAt returns round r's ledger, creating it — from a retired one when GC
// has left any — on first use.
func (o *Orderer) ledgerAt(r types.Round) *ledger {
	a := o.anchors[r]
	if a != nil {
		return a
	}
	if k := len(o.free); k > 0 {
		a, o.free = o.free[k-1], o.free[:k-1]
		clear(a.votes)
		clear(a.ordVotes)
		clear(a.counted)
		a.entered = false
	} else {
		a = &ledger{
			votes: make([]uint16, o.cfg.N), ordVotes: make([]uint16, o.cfg.N),
			counted: make([]byte, (o.cfg.N+7)/8),
		}
	}
	o.anchors[r] = a
	return a
}

// quorate reports whether the vertex at pos holds a direct quorum: 2f+1 seen
// proposals of the next round with a strong edge to it, the threshold being
// that round's epoch's.
func (o *Orderer) quorate(pos types.Position) bool {
	a := o.anchors[pos.Round]
	return a != nil && int(a.votes[pos.Source]) >= o.quorum(pos.Round+1)
}

// forget drops the fates and the quorum frontier derived so far.
func (o *Orderer) forget() {
	clear(o.memo)
	o.endKnown = false
}

// Vote tallies the implicit votes proposal v casts, through its strong
// edges, for the round below — once per proposer, however often v is seen
// again (retransmit, pull reply, recovery replay). Every edge is tallied, not
// only those to current anchors, which keeps the tally independent of the
// schedule. Then, for each anchor slot that reached its quorum with v, in
// edge order, it calls moved — the caller runs Advance there — unless the
// cursor waits for an anchor's history and the slot changes nothing about
// which anchor that is. Each call lets the cursor run up to that slot, no
// further, as if v's quorums had been observed one at a time.
func (o *Orderer) Vote(v *types.Vertex, moved func()) {
	if v.Round == 0 {
		return
	}
	prev := v.Round - 1
	a := o.ledgerAt(prev)
	if types.BitmapHas(a.counted, v.Source) {
		return
	}
	types.BitmapSet(a.counted, v.Source)
	o.hi = max(o.hi, prev)
	o.work += uint64(len(v.StrongEdges))
	for _, e := range v.StrongEdges {
		a.votes[e.Source]++
	}
	q := o.quorum(v.Round)
	for _, e := range v.StrongEdges {
		k := -1
		if int(a.votes[e.Source]) == q {
			k = o.SlotIndex(e.Pos())
		}
		if k < 0 {
			continue
		}
		seq := o.slotSeq(e.Pos(), k)
		if o.endKnown {
			o.end = max(o.end, seq+1)
		}
		if len(o.wait) > 0 {
			// The vertex waited for is the next anchor to order or the one
			// deciding the cursor's slot; a new quorum between the cursor
			// and it may decide the cursor's slot first, so the wait is
			// derived afresh. Otherwise it stands.
			if seq < o.cursor || seq >= o.waitSeq {
				continue
			}
			clear(o.wait)
		}
		moved()
	}
}

// Unvote clears the tallies fed by proposals of rounds >= from. An epoch
// installing at from calls it: the parties outside the new epoch are no
// longer voters there, and the caller re-Votes the proposals it still holds.
func (o *Orderer) Unvote(from types.Round) {
	for r, a := range o.anchors {
		if r+1 >= from {
			clear(a.votes)
			clear(a.counted)
		}
	}
	o.forget()
}

// Inserted reports whether the DAG insertion of pos may let the cursor move:
// always, unless the cursor waits for an anchor's history, which pos must
// then complete.
func (o *Orderer) Inserted(pos types.Position) bool {
	if len(o.wait) == 0 {
		return true
	}
	if !o.wait[pos] {
		return false
	}
	delete(o.wait, pos)
	return len(o.wait) == 0
}

// ClearWait forgets the ancestors the cursor waits for, so that the next
// Advance derives them afresh: a caller that inserted vertices without
// reporting them (a recovery replay) calls it.
func (o *Orderer) ClearWait() { clear(o.wait) }

// Advance moves the cursor as far as the slot fates allow and calls emit for
// every slot it leaves, in sequence. It stops on a slot whose fate is open,
// when no slot at or past the cursor is known to hold a quorum (nothing can
// be decided there before one does), or — reported as true — when the next
// anchor's causal history, or the vertex deciding the cursor's slot, is not
// all in the DAG yet (Inserted tells when it is). emit may call Offense,
// Unvote, Vote and GC; the cursor re-reads whatever they change.
func (o *Orderer) Advance(emit func(Step)) (waiting bool) {
	if len(o.wait) > 0 {
		return true
	}
	clear(o.memo)
	for {
		ss := o.nextSlot(o.cursor)
		p := o.slotPos(ss)
		if o.quorumEnd() <= ss {
			return false
		}
		o.judgeLate(p.Round)
		var fate Fate
		switch {
		case !o.slotLive(p.Round, int(ss%uint64(o.cfg.N)), p.Source):
			fate = NotLive
		case o.quorate(p):
			fate = Direct
		default:
			fate = o.decideSlot(ss)
		}
		if fate == Open {
			return len(o.wait) > 0
		}
		if (fate == Direct || fate == Indirect) && o.missing(ss) {
			return true
		}
		o.cursor = ss + 1
		var hist []*types.Vertex
		if fate == Direct || fate == Indirect {
			hist = o.dag.OrderCausalHistory(p)
			for _, v := range hist {
				o.tallyOrdered(v)
			}
		}
		emit(Step{Slot: p, Fate: fate, History: hist})
	}
}

// missing records, as the wait set, the ancestors of the anchor at slot seq
// that are not in the DAG, and reports whether there are any. A vertex is
// inserted only over its complete ancestry, so this is usually the anchor
// itself, not delivered yet although its quorum was seen. seq is the next
// anchor to order, or the one deciding the cursor's slot (decideSlot).
func (o *Orderer) missing(seq uint64) bool {
	for _, p := range o.dag.MissingAncestors(o.slotPos(seq)) {
		if p.Round >= o.dag.MinRound() {
			o.wait[p] = true
		}
	}
	o.waitSeq = seq
	return len(o.wait) > 0
}

// quorumEnd returns one past the highest slot known to hold a direct quorum,
// or 0 if none is. Once the schedule or the tallies moved, that is every slot
// from the cursor's round on that holds one.
func (o *Orderer) quorumEnd() uint64 {
	if o.endKnown {
		return o.end
	}
	o.end, o.endKnown = 0, true
	floor := types.Round(o.cursor / uint64(o.cfg.N))
	for r := o.hi + 1; r > floor && o.end == 0; {
		r--
		if a := o.anchors[r]; a != nil {
			q := o.quorum(r + 1)
			for k := o.Anchors(r) - 1; k >= 0 && o.end == 0; k-- {
				if int(a.votes[o.LeaderAt(r, k)]) >= q {
					o.end = uint64(r)*uint64(o.cfg.N) + uint64(k) + 1
				}
			}
		}
	}
	return o.end
}

// decideSlot resolves the fate of anchor slot ss, the same way at every
// party whatever each has seen so far.
//
// Direct rule: 2f+1 seen round r+1 proposals with a strong edge to the slot's
// vertex commit it (seen, not delivered: a proposal is the implicit vote, cast
// on the first message of its RBC — the 1 RBC + δ path).
//
// Indirect rule, for a slot without a local quorum: find the first slot, in
// sequence order from slot 0 of round r+2, whose own fate is commit, every
// slot before it from there on being decided skip; the slot commits iff a
// strong path leads from that deciding vertex to it. The two-round gap makes
// the verdict authoritative in both directions. A slot some party commits
// directly has at least f+1 honest voters, and every certified vertex two or
// more rounds above it has 2f+1 strong edges per level, which intersect them:
// the path exists, so nobody skips what anybody committed. And a slot is only
// ever skipped by this rule — there is no skip threshold on the tally: one
// certified voter is enough for some later anchor to reach the slot, so no
// count of proposals seen NOT voting can prove that none will (behind a
// partition one party would skip a slot that others commit by path). Agreement
// on which slot decides follows by descent: two parties using different
// deciding slots disagree on the fate of the lower one, a strictly higher slot
// than ss, and fates bottom out in direct commits.
//
// One-round reach: a primary's slot (r, 0) is searched from slot 0 of round
// r+1 when that round has a single anchor. Its only slot is its primary, and
// a round r+1 primary either strong-edges round r's or carries a no-vote
// certificate, 2f+1 parties' word that they never voted for it
// (validateVertex): no party can commit (r, 0) directly then, so a committed
// round r+1 primary decides it by its edge alone. With more anchors in round
// r+1 the slots after its primary carry no such certificate, and the search
// keeps the two-round gap. With one anchor a round this is single-leader
// Sailfish's rule: each skipped leader is resolved by the next committed one
// that links down to it.
//
// Every input is a stable, eventually-global fact: a quorum once seen stays,
// and the path is evaluated over the deciding vertex's complete causal
// history. A party missing an input returns Open and holds; arrivals trigger
// Advance again. A deciding vertex whose quorum was seen before it entered
// the DAG becomes the wait set (missing), as the next anchor to order does.
// No slot above the highest quorate one can commit, so the search stops
// there. The cost of having no early skip: a slot whose vertex never comes (a
// crashed member's) holds the slots behind it until the slot that decides it
// commits — slot 0 of round r+2, two rounds, or of round r+1 under the
// one-round reach — which is why such a member's slots stop being live
// (slotLive) a few rounds after its vertices stop coming.
func (o *Orderer) decideSlot(ss uint64) Fate {
	if f, ok := o.memo[ss]; ok {
		return f
	}
	o.work++
	p := o.slotPos(ss)
	f := Open
	if o.quorate(p) {
		f = Direct
	} else {
		from := p.Round + 2
		if ss%uint64(o.cfg.N) == 0 && o.Anchors(p.Round+1) == 1 {
			from = p.Round + 1
		}
		for s2 := uint64(from) * uint64(o.cfg.N); s2 < o.quorumEnd(); s2 = o.nextSlot(s2 + 1) {
			f2 := o.decideSlot(s2)
			if f2 == Open {
				break // an open fate below the deciding slot: hold
			}
			if f2 == Skipped {
				continue
			}
			fp := o.slotPos(s2)
			if !o.dag.Has(fp) {
				// Path not yet evaluable: wait for the deciding vertex. That
				// is all it takes — a vertex is inserted only over its
				// complete ancestry, so its causal history needs no second
				// walk.
				o.missing(s2)
				break
			}
			if o.dag.StrongPath(fp, p) {
				f = Indirect
			} else {
				f = Skipped
			}
			break
		}
	}
	o.memo[ss] = f
	return f
}

// Slot liveness. When the cursor enters round r it judges round r-liveLag:
// three is the nearest round whose voters — round r-2 — are all ordered by
// then, anchors or not (round r-1's anchors order them). A member found late
// sits out of the anchor set for the liveSpan rounds from r on, so one that is
// late at least every fourth round stays out and any other is back at once.
// Sitting out costs the member's own vertices a round; a live slot that misses
// its quorum costs everyone's two. The value is measured (EXPERIMENTS.md,
// "Slot liveness, A/B"): below 3 a five-region WAN loses a fifth and more,
// above 4 the rounds after a primary's timeout — when many vertices miss a
// quorum at once — leave most members out for the window and the median a
// third of a round slower.
const (
	liveLag  = 3
	liveSpan = 4
)

// judgeLate runs once per round, the first time the cursor reaches one of
// round r's slots — the same point of the slot sequence at every party, with
// the same ordered prefix behind it. It judges round r-liveLag: a member whose
// vertex there was not strong-edged by 2f+1 of the next round's ordered
// vertices (it would not have committed directly, or never existed) is marked
// late as of that round. The ordVotes tally is a function of the prefix
// alone, so the marks are as much a function of the total order as the order
// itself.
func (o *Orderer) judgeLate(r types.Round) {
	if r < liveLag {
		return
	}
	a := o.ledgerAt(r)
	if a.entered {
		return
	}
	a.entered = true
	j := r - liveLag
	q := o.quorum(j + 1)
	t := o.anchors[j]
	for _, m := range o.cfg.EpochOf(r).Members {
		if t == nil || int(t.ordVotes[m]) < q {
			o.late[m] = j + 1
		}
	}
}

// slotLive reports whether slot idx of round r, held by src, takes part in
// ordering. The primary's always does; any other does unless the member was
// found late (judgeLate) within the last liveSpan rounds. So a crashed
// member's slots, and those of a member whose vertices keep arriving after the
// quorum has moved on, stop being waited for within a few rounds, and come
// back, with no probing, as soon as its vertices are timely again. This does
// not go through the reputation table: that one is what the primary rotation
// runs over, is consulted when proposals are validated and so applies a fence
// late, and is opt-in; this one is read at ordering time only, at a fixed
// point of the prefix. Call it only for the cursor's round, after judgeLate.
func (o *Orderer) slotLive(r types.Round, idx int, src types.NodeID) bool {
	if idx == 0 || r < liveLag {
		return true
	}
	at := o.late[src]
	return at == 0 || r-liveLag+1 >= at+liveSpan
}

// tallyOrdered folds a vertex just appended to the total order into the
// ordered vote tally of the round below it (see slotLive). With one anchor a
// round every slot is a primary's, always live, so the tally decides nothing.
func (o *Orderer) tallyOrdered(v *types.Vertex) {
	if o.cfg.LeadersPerRound == 1 || v.Round == 0 || v.Round-1 < o.dag.MinRound() {
		return
	}
	o.work += uint64(len(v.StrongEdges))
	a := o.ledgerAt(v.Round - 1)
	for _, e := range v.StrongEdges {
		a.ordVotes[e.Source]++
	}
}

// GC drops the ledgers and reputation state below horizon, the DAG's new
// MinRound.
func (o *Orderer) GC(horizon types.Round) {
	for r, a := range o.anchors {
		if r < horizon {
			delete(o.anchors, r)
			o.free = append(o.free, a)
		}
	}
	o.gcReputation(horizon)
}

// Work returns the structural steps taken outside the DAG's walks: edges
// tallied plus slot fates evaluated. Added to dag.DAG.Steps it is the
// order.work counter, machine-independent and so gateable.
func (o *Orderer) Work() uint64 { return o.work }

// Footprint reports what the orderer retains — anchor ledgers, retired
// ledgers kept for reuse, reputation events and charged rounds — all of it
// bounded by GC.
func (o *Orderer) Footprint() (ledgers, retired, events, charged int) {
	return len(o.anchors), len(o.free), len(o.rep.events), len(o.rep.offenseSeen)
}
