package core

import (
	"cmp"
	"slices"
	"time"

	"clanbft/internal/types"
)

// Stage 3 of the commit pipeline: DAG insertion, the Sailfish leader commit
// rule, and deterministic total ordering. This file owns everything between
// an RBC-delivered vertex (onDelivered, called by stage_rbc.go) and a
// CommittedVertex handed to the execution stage (emitCommitted,
// stage_exec.go).

// orderState is the ordering stage's state, owned by the serialized handler.
type orderState struct {
	// anchors is the per-round anchor ledger (vote tallies, commit marks);
	// anchorFree recycles the ledgers gc retires.
	anchors    map[types.Round]*anchorRound
	anchorFree []*anchorRound

	// Anchor resolution spacing for the order.anchor_gap histogram.
	lastAnchorAt  time.Duration
	haveAnchorGap bool

	// cursor is the first anchor slot (slotSeq) whose fate is still open:
	// every slot below it has been ordered or passed over, in sequence.
	cursor uint64
	// draining marks an active drainCommits loop: checkCommit calls made
	// from inside it (the reputation re-tally path) must only enqueue, not
	// recurse into a second drain over the same head.
	draining bool
	// memo and chain are drainCommits scratch, reused across passes.
	memo  map[uint64]slotDecision
	chain []chainEnt
	// work counts the ordering stage's structural steps outside the DAG
	// walks (edges tallied, slot fates evaluated); see order.work.
	work uint64
	// late[s] is 1 + the last round member s's vertex was judged late (0 =
	// never): judgeLate writes it, slotLive reads it.
	late []types.Round

	// Deferred work.
	pendingInsert  map[types.Position]pendingVertex // delivered, awaiting parents
	waitingChild   map[types.Position][]types.Position
	pendingLeaders []leaderCommit          // committed, awaiting complete history; sorted by seq
	commitWait     map[types.Position]bool // ancestors the head commit waits for
	// commitWaitFor is the head the wait set was derived for. During
	// catch-up, commits arrive out of order: a lower-sequence head can be
	// enqueued after a higher one started waiting, making the recorded wait
	// set stale — it is discarded (and re-derived later) when the queue
	// head no longer matches.
	commitWaitFor types.Position
	out           outFIFO // ordered, awaiting blocks
	// lateVertices collects vertices that missed strong-edge inclusion and
	// must be weak-edged by the next proposal (guarantees BAB validity).
	lateVertices map[types.Position]*types.Vertex
	// pulls tracks parent positions with an ordering-stage pull in flight,
	// so buffered-vertex retries never re-request the same parent. Cleared
	// on insert; swept by gc.
	pulls map[types.Position]bool
}

// anchorRound is everything the ordering stage tracks about round r's
// anchors. The vote tally is kept per source, not per slot, and is updated
// once per seen round r+1 proposal from that proposal's strong edges: which
// sources are anchors is a lookup at read time (leaderIdx), so a reputation
// change re-reads the tally instead of recounting it, and a slot's direct
// verdict is one comparison, votes[source] >= 2f+1. Invariant: each round
// r+1 member is counted at most once (counted), so votes[s] only grows and
// never exceeds the number of members seen — a quorum, once observed, stays.
//
// ordVotes is the same tally taken over ORDERED round r+1 vertices only — a
// function of the total-order prefix, hence identical at every party at the
// same point of the slot sequence, which the seen tally is not. judgeLate
// reads it.
type anchorRound struct {
	votes     []uint16 // votes[s]: seen round r+1 proposals with a strong edge to (r, s)
	ordVotes  []uint16 // ordVotes[s]: ordered round r+1 vertices with a strong edge to (r, s)
	counted   []byte   // bitmap: round r+1 sources already tallied
	committed []byte   // bitmap: sources whose slot is enqueued for ordering
	entered   bool     // the ordering cursor has reached this round (judgeLate)
}

// anchorState returns round r's ledger, creating it — from a retired one
// when gc has left any — on first use.
func (n *Node) anchorState(r types.Round) *anchorRound {
	a := n.ord.anchors[r]
	if a != nil {
		return a
	}
	if k := len(n.ord.anchorFree); k > 0 {
		a = n.ord.anchorFree[k-1]
		n.ord.anchorFree = n.ord.anchorFree[:k-1]
		clear(a.votes)
		clear(a.ordVotes)
		clear(a.counted)
		clear(a.committed)
		a.entered = false
	} else {
		N, bm := n.cfg.N, (n.cfg.N+7)/8
		a = &anchorRound{
			votes: make([]uint16, N), ordVotes: make([]uint16, N),
			counted: make([]byte, bm), committed: make([]byte, bm),
		}
	}
	n.ord.anchors[r] = a
	return a
}

// primaryIn reports whether round r's primary vertex has delivered — under
// the schedule as it stands now, so a reputation or epoch change needs no
// re-marking.
func (n *Node) primaryIn(r types.Round) bool {
	return n.delivered(types.Position{Round: r, Source: n.leader(r)})
}

// Slot liveness. When the ordering cursor enters round r it judges round
// r-liveLag: three is the nearest round whose voters — round r-2 — are all
// ordered by then, anchors or not (round r-1's anchors order them). A member
// found late sits out of the anchor set for the liveSpan rounds from r on, so
// one that is late at least every fourth round stays out and any other is
// back at once. Sitting out costs the member's own vertices a round; a live
// slot that misses its quorum costs everyone's two. The value is measured
// (EXPERIMENTS.md, "Slot liveness, A/B"): below 3 a five-region WAN loses a
// fifth and more, above 4 the rounds after a primary's timeout — when many
// vertices miss a quorum at once — leave most members out for the window and
// the median a third of a round slower.
const (
	liveLag  = 3
	liveSpan = 4
)

// judgeLate runs once per round, the first time the ordering cursor reaches
// one of round r's slots — the same point of the slot sequence at every
// party, with the same ordered prefix behind it. It judges round r-liveLag:
// a member whose vertex there was not strong-edged by 2f+1 of the next
// round's ordered vertices (it would not have committed directly, or never
// existed) is marked late as of that round. The ordVotes tally is a function
// of the prefix alone, so the marks are as much a function of the total
// order as the order itself.
func (n *Node) judgeLate(r types.Round) {
	if r < liveLag {
		return
	}
	a := n.anchorState(r)
	if a.entered {
		return
	}
	a.entered = true
	j := r - liveLag
	q := n.quorum(j + 1)
	t := n.ord.anchors[j]
	for _, m := range n.epochOf(r).members {
		if t == nil || int(t.ordVotes[m]) < q {
			n.ord.late[m] = j + 1
		}
	}
}

// slotLive reports whether slot idx of round r, held by src, takes part in
// ordering. The primary's always does; any other does unless the member was
// found late (judgeLate) within the last liveSpan rounds. So a crashed
// member's slots, and those of a member whose vertices keep arriving after
// the quorum has moved on, stop being waited for within a few rounds, and
// come back, with no probing, as soon as its vertices are timely again. This
// does not go through the reputation table: that one is what the primary
// rotation runs over, is consulted when proposals are validated and so
// applies a fence late, and is opt-in; this one is read at ordering time
// only, at a fixed point of the prefix. Call it only for the cursor's round,
// after judgeLate. The pacing hold (tryAdvance) deliberately does not consult
// it and waits for every slot's vertex: were it to wait for live slots only,
// a cluster in which everyone has been marked late — a chaotic start is
// enough — would stop holding, reference only the first 2f+1 arrivals, and so
// keep finding everyone late.
func (n *Node) slotLive(r types.Round, idx int, src types.NodeID) bool {
	if idx == 0 || r < liveLag {
		return true
	}
	at := n.ord.late[src]
	return at == 0 || r-liveLag+1 >= at+liveSpan
}

// outFIFO is the queue of ordered vertices awaiting emission. Pops advance a
// head index and the slice rewinds once it drains, so the backing array is
// reused instead of creeping forward with every commit.
type outFIFO struct {
	items []outEntry
	head  int
}

type outEntry struct {
	cv       CommittedVertex
	queuedAt time.Duration // clock reading at push
}

func (q *outFIFO) len() int { return len(q.items) - q.head }

func (q *outFIFO) push(e outEntry) { q.items = append(q.items, e) }

func (q *outFIFO) pop() {
	q.items[q.head] = outEntry{} // release the vertex and block
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}

// onDelivered runs when the merged RBC completes for a vertex: insert into
// the DAG (or buffer until parents arrive), track late vertices, advance
// rounds, retry commits.
func (n *Node) onDelivered(v *types.Vertex) {
	n.tryInsert(v)
	// NOTE: the round timer is deliberately NOT cancelled when the leader
	// vertex arrives — it doubles as the stuck-round probe that keeps
	// pulling missing vertices and re-broadcasting timeout state until
	// the round actually advances (propose() disarms it). Timeout votes
	// themselves stay gated on the leader's absence.
	// A vote quorum may have formed before the leader vertex arrived.
	if n.leaderIdx(v.Pos()) >= 0 {
		n.checkCommit(v.Pos())
	}
	n.tryAdvance()
}

// pendingVertex is a delivered vertex awaiting parents: missing counts its
// entries in waitingChild, one per edge to a parent absent when it was
// buffered, and each parent's arrival (or retirement by gc) takes one off.
type pendingVertex struct {
	v       *types.Vertex
	missing int
}

// tryInsert adds v to the DAG once all parents are present; otherwise it
// buffers v until the last of them lands.
func (n *Node) tryInsert(v *types.Vertex) {
	pos := v.Pos()
	if _, pending := n.ord.pendingInsert[pos]; pending || n.dag.Has(pos) || n.gcd(pos) {
		return // pending: a repeat must not wait on its parents twice
	}
	missing := 0
	for i, k := 0, v.NumEdges(); i < k; i++ {
		p := v.Edge(i).Pos()
		if p.Round < n.dag.MinRound() || n.dag.Has(p) {
			continue
		}
		missing++
		n.ord.waitingChild[p] = append(n.ord.waitingChild[p], pos)
		// A parent that was never pushed to us must be pulled: its RBC may
		// have completed at others while our VAL was lost pre-GST. One
		// in-flight pull per position — other children waiting on the same
		// parent ride along.
		if n.ord.pulls[p] {
			continue
		}
		if in := n.inst(p); !in.delivered {
			n.ord.pulls[p] = true
			n.maybeStartVtxPull(p, in)
		}
	}
	if missing == 0 {
		n.insertNow(v)
		return
	}
	n.ord.pendingInsert[pos] = pendingVertex{v, missing}
}

// parentIn takes parent off the count of each child waiting on it, then
// inserts the ones that wait for nothing more — by then, not before: a child
// a sibling's insertion completes goes in with that sibling.
func (n *Node) parentIn(parent types.Position) {
	kids := n.ord.waitingChild[parent]
	delete(n.ord.waitingChild, parent)
	for _, kid := range kids {
		if pend, ok := n.ord.pendingInsert[kid]; ok {
			pend.missing--
			n.ord.pendingInsert[kid] = pend
		}
	}
	for _, kid := range kids {
		if pend, ok := n.ord.pendingInsert[kid]; ok && pend.missing == 0 {
			n.insertNow(pend.v)
		}
	}
}

func (n *Node) insertNow(v *types.Vertex) {
	pos := v.Pos()
	// Parent-presence reads against the store (the paper observes these
	// lookups contribute to latency at n=150).
	n.clk.Charge(time.Duration(len(v.StrongEdges)+len(v.WeakEdges)) * n.cfg.Costs.StoreRead)
	if err := n.dag.Insert(v); err != nil {
		return // equivocation cannot reach here through RBC; drop defensively
	}
	if n.cfg.Store != nil {
		var key [2 + 8 + 2]byte
		key[0], key[1] = 'v', '/'
		binaryPutPos(key[2:], pos)
		n.putOwned(key[:], v.Marshal(nil))
	}
	n.clk.Charge(n.cfg.Costs.StoreWrite)
	delete(n.ord.pendingInsert, pos)
	delete(n.ord.pulls, pos)
	n.mDagVerts.Inc()
	n.mDagEdges.Add(uint64(v.NumEdges()))
	n.noteHeld(v)

	// Vertices that already missed strong-edge inclusion get weak edges in
	// our next proposal so they are eventually ordered (BAB validity).
	if v.Round+1 <= n.round {
		n.ord.lateVertices[pos] = v
	}

	n.parentIn(pos) // unblock buffered children
	// Newly present ancestors may complete a committed leader's history.
	if len(n.ord.commitWait) > 0 {
		if n.ord.commitWait[pos] {
			delete(n.ord.commitWait, pos)
			if len(n.ord.commitWait) == 0 {
				n.drainCommits()
			}
		}
		return
	}
	n.drainCommits()
}

func binaryPutPos(b []byte, pos types.Position) {
	for i := 0; i < 8; i++ {
		b[i] = byte(pos.Round >> (8 * (7 - i)))
	}
	b[8] = byte(pos.Source >> 8)
	b[9] = byte(pos.Source)
}

// ---------------------------------------------------------------------------
// Commit rule and total ordering.

// countVote tallies the implicit votes a round r+1 proposal casts, through
// its strong edges, for round r's vertices — once per proposer, however often
// the vertex is seen again (retransmit, pull reply, recovery replay). Every
// edge is tallied, not only those to current anchors, which keeps the tally
// independent of the reputation schedule (see anchorRound).
func (n *Node) countVote(v *types.Vertex) {
	if v.Round == 0 {
		return
	}
	prev := v.Round - 1
	a := n.anchorState(prev)
	if types.BitmapHas(a.counted, v.Source) {
		return
	}
	types.BitmapSet(a.counted, v.Source)
	n.ord.work += uint64(len(v.StrongEdges))
	for _, e := range v.StrongEdges {
		a.votes[e.Source]++
	}
	// Second pass, so that every slot this proposal completes is already at
	// quorum when the first of them starts the drain.
	q := n.quorum(v.Round)
	for _, e := range v.StrongEdges {
		if int(a.votes[e.Source]) >= q && !types.BitmapHas(a.committed, e.Source) {
			n.checkCommit(e.Pos())
		}
	}
}

// recountVotes rebuilds the tallies fed by proposals of rounds >= from out
// of the vertices the RBC stage currently holds. An epoch installing at
// `from` calls it: instances of parties that are not members of the new
// epoch were just dropped, and their votes must go with them.
func (n *Node) recountVotes(from types.Round) {
	for r, a := range n.ord.anchors {
		if r+1 >= from {
			clear(a.votes)
			clear(a.counted)
		}
	}
	for r, row := range n.rbc.insts {
		if r < from {
			continue
		}
		for i := range row.at {
			if v := row.at[i].vertex; v != nil {
				n.countVote(v)
			}
		}
	}
}

// checkCommit applies the direct commit rule for an anchor vertex: 2f+1
// next-round proposals with a strong edge to it.
func (n *Node) checkCommit(lp types.Position) {
	// Votes are round lp.Round+1 proposals, so the quorum threshold is that
	// round's epoch (the fence between lp and its voters, if any, raises or
	// lowers the bar with the new membership).
	a := n.ord.anchors[lp.Round]
	if a == nil || types.BitmapHas(a.committed, lp.Source) || int(a.votes[lp.Source]) < n.quorum(lp.Round+1) {
		return
	}
	idx := n.leaderIdx(lp)
	if idx < 0 {
		return
	}
	types.BitmapSet(a.committed, lp.Source)
	n.Metrics.DirectCommits++
	n.insertPending(leaderCommit{pos: lp, direct: true, seq: n.slotSeq(lp, idx)})
	if n.ord.draining {
		return // the running drain picks the new entry up on its next pass
	}
	n.drainCommits()
}

// insertPending adds lc to pendingLeaders at its place in sequence order.
func (n *Node) insertPending(lc leaderCommit) {
	i, _ := slices.BinarySearchFunc(n.ord.pendingLeaders, lc.seq, func(e leaderCommit, seq uint64) int {
		return cmp.Compare(e.seq, seq)
	})
	n.ord.pendingLeaders = slices.Insert(n.ord.pendingLeaders, i, lc)
}

// popPending removes the head of pendingLeaders in place, so the backing
// array is reused (the queue is a handful of entries outside catch-up).
func (n *Node) popPending() {
	n.ord.pendingLeaders = slices.Delete(n.ord.pendingLeaders, 0, 1)
}

// recomputePending re-derives the sequence number of every queued leader
// commit against the current reputation table, dropping entries whose
// position is no longer an anchor slot. No-op with reputation disabled (the
// static schedule never moves a slot).
func (n *Node) recomputePending() {
	if !n.cfg.LeaderReputation || len(n.ord.pendingLeaders) == 0 {
		return
	}
	kept := n.ord.pendingLeaders[:0]
	for _, lc := range n.ord.pendingLeaders {
		idx := n.leaderIdx(lc.pos)
		if idx < 0 {
			continue
		}
		lc.seq = n.slotSeq(lc.pos, idx)
		kept = append(kept, lc)
	}
	n.ord.pendingLeaders = kept
	slices.SortFunc(kept, func(a, b leaderCommit) int { return cmp.Compare(a.seq, b.seq) })
}

type slotVerdict int

const (
	slotUndecided slotVerdict = iota // fate still open: hold ordering here
	slotSkips                        // no party can ever observe a vote quorum
	slotCommits                      // ordered as an anchor
)

type slotDecision struct {
	v      slotVerdict
	direct bool // verdict came from a real vote quorum, not the indirect rule
}

// decideSlot resolves the fate of anchor slot ss, the same way at every
// party whatever each has seen so far.
//
// Direct rule: 2f+1 seen round r+1 proposals with a strong edge to the slot's
// vertex commit it (seen, not delivered: a proposal is the implicit vote, cast
// on the first message of its RBC — the 1 RBC + δ path). The tally is the
// round's ledger entry (anchorRound): no scan.
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
// partition one party would skip a slot that others commit by path; see
// DESIGN.md, "Latency compression"). Agreement on which slot decides follows by
// descent: two parties using different deciding slots disagree on the fate of
// the lower one, a strictly higher slot than ss, and fates bottom out in
// direct commits.
//
// Every input is a stable, eventually-global fact: a quorum once seen stays,
// and the path is evaluated over the deciding vertex's complete causal
// history. A party missing an input returns undecided and holds; arrivals
// re-trigger the drain. The cost of having no early skip: a slot whose vertex
// never comes (a crashed member's) holds the slots behind it until slot 0 of
// round r+2 commits — two rounds — which is why such a member's slots stop
// being live (slotLive) a few rounds after its vertices stop coming.
func (n *Node) decideSlot(ss uint64) (slotVerdict, bool) {
	if d, ok := n.ord.memo[ss]; ok {
		return d.v, d.direct
	}
	n.ord.work++
	p := n.slotPos(ss)
	v, direct := slotUndecided, false
	if a := n.ord.anchors[p.Round]; a != nil && int(a.votes[p.Source]) >= n.quorum(p.Round+1) {
		v, direct = slotCommits, true
	} else {
		var maxSeq uint64
		if k := len(n.ord.pendingLeaders); k > 0 {
			maxSeq = n.ord.pendingLeaders[k-1].seq
		}
		for s2 := uint64(p.Round+2) * uint64(n.cfg.N); s2 <= maxSeq; s2 = n.nextSlot(s2 + 1) {
			f2, _ := n.decideSlot(s2)
			if f2 == slotUndecided {
				break // an open fate below the deciding slot: hold
			}
			if f2 == slotSkips {
				continue
			}
			fp := n.slotPos(s2)
			if !n.dag.Has(fp) {
				// Path not yet evaluable: hold until the deciding vertex is
				// in the DAG. That is all it takes — a vertex is inserted
				// only over its complete ancestry (tryInsert), so its causal
				// history needs no second walk.
				break
			}
			if n.dag.StrongPath(fp, p) {
				v = slotCommits
			} else {
				v = slotSkips
			}
			break
		}
	}
	n.ord.memo[ss] = slotDecision{v, direct}
	return v, direct
}

// passSlot moves the cursor past slot ss without ordering it: skipped by the
// indirect rule, not live, or stepped over by the single-leader walk.
func (n *Node) passSlot(ss uint64) {
	n.ord.cursor = ss + 1
	n.Metrics.SlotsSkipped++
	n.mSlotsSkipped.Inc()
}

// tallyOrdered folds a vertex just appended to the total order into the
// ordered vote tally of the round below it (see slotLive). Multi-anchor
// ordering only: the single-leader walk never asks.
func (n *Node) tallyOrdered(v *types.Vertex) {
	if n.cfg.LeadersPerRound == 1 || v.Round == 0 || v.Round-1 < n.dag.MinRound() {
		return
	}
	n.ord.work += uint64(len(v.StrongEdges))
	a := n.anchorState(v.Round - 1)
	for _, e := range v.StrongEdges {
		a.ordVotes[e.Source]++
	}
}

// chainEnt is one anchor a drainCommits pass is about to order.
type chainEnt struct {
	pos types.Position
	seq uint64
}

// drainCommits resolves committed leaders into the total order as soon as
// their causal histories are locally complete, committing skipped leaders
// indirectly along strong paths, then emits what was ordered. When the head
// leader's history has gaps, the missing positions are recorded in commitWait
// and the scan resumes only once they are inserted (avoiding a full-history
// walk on every insert).
func (n *Node) drainCommits() {
	if n.ord.draining {
		return
	}
	if len(n.ord.commitWait) > 0 {
		if len(n.ord.pendingLeaders) > 0 && n.ord.pendingLeaders[0].pos == n.ord.commitWaitFor {
			return // still waiting; insertNow re-triggers when satisfied
		}
		clear(n.ord.commitWait) // stale: recorded for a head that moved
	}
	n.ord.draining = true
	waiting := n.orderPending()
	n.ord.draining = false
	if waiting {
		return // insertNow re-triggers, and emits, once the ancestors are in
	}
	// Whatever the pass ordered is emitted even when it ended on an open
	// fate: with an anchor in every slot there is nearly always a later
	// commit queued behind one, so "the queue ran empty" cannot be the trigger.
	n.drainOut()
	// Processing a leader commit raises the propose throttle; re-check
	// round advancement unless this drain runs inside the recovery replay
	// (the recovered round highwater is not restored yet at that point).
	if !n.recovering {
		n.tryAdvance()
	}
}

// orderPending is drainCommits' ordering loop: it pops pendingLeaders in
// sequence order, deciding every slot below each head, and returns when the
// queue is empty, a slot's fate is open, or — reported as true — the head
// waits for ancestors.
func (n *Node) orderPending() bool {
	// With a reputation-mutable schedule, the slot recorded at vote time may
	// be stale: evidence ordered since can demote a leader and shift the
	// rotation. Re-derive every queued entry against the current table —
	// dropping entries no longer at a leader slot — so pops always compare
	// current sequence numbers (a stale high seq must not outrank the true
	// head, and a stale low seq must not be mistaken for already-ordered).
	n.recomputePending()
	stride := uint64(n.cfg.N)
	for len(n.ord.pendingLeaders) > 0 {
		lc := n.ord.pendingLeaders[0]
		if lc.seq < n.ord.cursor {
			n.popPending()
			continue
		}
		// Indirect commits. The two modes resolve skipped slots differently,
		// because a slot ordered by one party must be provably skippable or
		// provably committed at every other, no matter the arrival timing.
		//
		// Single-leader rounds (an explicit LeadersPerRound of 1) carry a
		// certificate: a committed round-r+1 leader either strong-edges round
		// r's leader — the chain walk finds it — or carries an NVC proving
		// 2f+1 no-votes, so a slot the walk skips can never commit anywhere.
		//
		// Multi-anchor slots have no such certificate, and a path-from-the-
		// nearest-anchor walk is not canonical (which committed anchor sits
		// nearest a slot depends on local commit timing), so ordering is
		// fate-driven instead: the cursor passes every slot up to the head
		// in sequence — a slot that is not live at once (slotLive), a live
		// one on decideSlot's verdict, the direct quorum or the indirect
		// rule against the first committed slot two rounds up — and the
		// drain holds while a live slot's fate is still open (more arrivals
		// re-trigger). A slot that commits below the head is enqueued and
		// the loop restarts with it at the head, so the usual history
		// completeness check runs before it is ordered.
		if n.cfg.LeadersPerRound > 1 {
			restart, hold := false, false
			if len(n.ord.memo) > 0 {
				clear(n.ord.memo)
			}
			for ss := n.nextSlot(n.ord.cursor); ss <= lc.seq; ss = n.nextSlot(ss + 1) {
				p := n.slotPos(ss)
				n.judgeLate(p.Round)
				if !n.slotLive(p.Round, int(ss%stride), p.Source) {
					n.passSlot(ss)
					continue
				}
				if ss == lc.seq {
					break // the head itself: live and committed
				}
				v, direct := n.decideSlot(ss)
				if v == slotSkips {
					n.passSlot(ss)
					continue
				}
				if v == slotCommits {
					if a := n.anchorState(p.Round); !types.BitmapHas(a.committed, p.Source) {
						types.BitmapSet(a.committed, p.Source)
						if direct {
							n.Metrics.DirectCommits++
						}
						n.insertPending(leaderCommit{pos: p, direct: direct, seq: ss})
					}
					restart = true
				} else {
					hold = true
				}
				break
			}
			if restart {
				continue
			}
			if hold {
				return false
			}
			if n.ord.cursor > lc.seq {
				n.popPending() // the head's own slot was not live
				continue
			}
		}
		// The head is next in sequence. Its history must be complete before
		// it is ordered (checked only now: every slot above was an O(1)
		// verdict, this is a walk).
		if missing := n.dag.MissingAncestors(lc.pos); len(missing) > 0 {
			for _, p := range missing {
				if p.Round >= n.dag.MinRound() {
					n.ord.commitWait[p] = true
				}
			}
			if len(n.ord.commitWait) > 0 {
				n.ord.commitWaitFor = lc.pos
				return true // wait for ancestors to be inserted
			}
		}
		chain := append(n.ord.chain[:0], chainEnt{lc.pos, lc.seq})
		if n.cfg.LeadersPerRound == 1 {
			// One slot per round: walk the rounds between the last ordered
			// leader and this one, newest first.
			startRound := types.Round((n.ord.cursor + stride - 1) / stride)
			cur := lc.pos
			for r := lc.pos.Round; r > startRound; {
				r--
				prevLeader := types.Position{Round: r, Source: n.leader(r)}
				if n.dag.Has(prevLeader) && n.dag.StrongPath(cur, prevLeader) {
					chain = append(chain, chainEnt{prevLeader, uint64(r) * stride})
					cur = prevLeader
				}
			}
		}
		n.ord.chain = chain
		// Order oldest first, each anchor's committed membership transactions
		// scheduled against that anchor's round. The anchor a vertex is
		// ordered under is a function of the total-order prefix alone (unlike
		// the queue head, which depends on local commit timing), so both the
		// epoch fence and the reputation apply round derived from it are
		// identical at every party.
		now := n.clk.Now()
		rederive := false
		for i := len(chain) - 1; i >= 0; i-- {
			lp := chain[i].pos
			direct := lc.direct && lp == lc.pos
			if direct {
				n.Metrics.SlotsDirect++
				n.mSlotsDirect.Inc()
			} else {
				n.Metrics.IndirectCommits++
				n.Metrics.SlotsIndirect++
				n.mSlotsIndir.Inc()
			}
			// Every slot still between the cursor and this anchor (the
			// rounds the single-leader walk stepped over) is passed for good.
			for s := n.nextSlot(n.ord.cursor); s < chain[i].seq; s = n.nextSlot(s + 1) {
				n.passSlot(s)
			}
			n.ord.cursor = chain[i].seq + 1
			n.mOrderCommits.Inc()
			if n.ord.haveAnchorGap {
				n.mAnchorGap.Observe(now - n.ord.lastAnchorAt)
			}
			n.ord.lastAnchorAt = now
			n.ord.haveAnchorGap = true
			var rtxs []types.ReconfigTx
			for _, v := range n.dag.OrderCausalHistory(lp) {
				n.ord.out.push(outEntry{CommittedVertex{
					Vertex:      v,
					LeaderRound: lp.Round,
					Direct:      direct,
				}, now})
				n.Metrics.VerticesOrdered++
				n.mOrderVerts.Inc()
				n.tallyOrdered(v)
				rtxs = append(rtxs, v.Reconfig...)
				// Committed view-change evidence feeds the reputation
				// schedule: a TC or NVC ordered through the DAG charges
				// the leader whose slot timed out.
				if n.cfg.LeaderReputation {
					if v.TC != nil {
						n.noteOffense(v.TC.Round, lp.Round)
					}
					if v.NVC != nil {
						n.noteOffense(v.NVC.Round, lp.Round)
					}
				}
			}
			n.Metrics.LastOrderedRound = lp.Round
			if lp.Round > n.lastCommitRound {
				n.lastCommitRound = lp.Round
			}
			if len(rtxs) > 0 {
				n.scheduleEpoch(lp.Round, rtxs)
			}
			// Evidence just ordered may apply at rounds this node has
			// already delivered (catch-up after a crash): re-derive the
			// anchor marks and commit checks for those rounds under the
			// updated table. When the chain still has anchors above this one,
			// their slots — and the skipped-slot walk itself — were derived
			// under the pre-evidence table, so abort and recompute from the
			// head; the cursor already covers the anchors ordered so far.
			if n.rep.retally {
				from := n.rep.retallyFrom
				n.rep.retally = false
				n.retallyVotes(from)
				n.recomputePending()
				if i > 0 {
					rederive = true
					break
				}
			}
		}
		if rederive {
			continue
		}
		n.popPending()
		n.gc()
	}
	return false
}

// drainOut emits ordered vertices in sequence, holding at any vertex whose
// block this party needs but has not yet received (commit runs ahead of
// block download; execution order is preserved). Each emitted vertex is
// stamped with OrderedAt and handed to the execution stage.
func (n *Node) drainOut() {
	for n.ord.out.len() > 0 {
		ent := &n.ord.out.items[n.ord.out.head]
		cv := ent.cv
		v := cv.Vertex
		var blk *types.Block
		if n.wantsBlock(v) {
			if blk = n.blockFor(v.BlockDigest); blk == nil {
				if in := n.instIfAny(v.Pos()); in != nil {
					n.maybeStartBlockPull(v.Pos(), in)
				}
				return
			}
			n.Metrics.TxsOrdered += blk.TxCount()
		}
		cv.Block = blk
		now := n.clk.Now()
		cv.OrderedAt = now
		if v.CreatedAt > 0 {
			cv.ProposedAt = time.Duration(v.CreatedAt)
			// Cross-node clock skew (real transports stamp against private
			// epochs) can produce nonsense deltas; only sane ones land in
			// the histogram. Under the simulator the stamp is exact.
			if d := now - cv.ProposedAt; d >= 0 {
				n.mCommitLat.Observe(d)
			}
		}
		n.mOrderLat.Observe(now - ent.queuedAt)
		n.ord.out.pop()
		n.emitCommitted(cv)
		if blk != nil {
			n.blockEmitted(v)
		}
	}
}

// gc advances the garbage-collection horizon behind the last ordered leader,
// pruning every stage's per-round state: the DAG, the RBC stage (instances,
// block cache, echo waiters — see gcRBC), ordering state, and view-layer
// certificates/aggregators. commitWait needs no sweep: drainCommits only
// populates it while it is empty and the horizon only advances when it is
// empty again, so nothing in it can be below the horizon.
//
// The horizon never passes a vertex still waiting in the out queue: its block
// and the RBC instance that would pull it must outlive its emission. That
// bound, the lowest round not yet handed to execution, is the executed-prefix
// watermark that checkpoint pruning will reuse.
func (n *Node) gc() {
	lastRound := n.lastCommitRound // the last ordered anchor's round
	if lastRound < types.Round(n.cfg.GCDepth) {
		return
	}
	horizon := lastRound - types.Round(n.cfg.GCDepth)
	for _, ent := range n.ord.out.items[n.ord.out.head:] {
		horizon = min(horizon, ent.cv.Vertex.Round)
	}
	if horizon <= n.dag.MinRound() {
		return
	}
	n.dag.GC(horizon)
	n.gcRBC(horizon)
	n.gcEpochs(horizon)
	for r, a := range n.ord.anchors {
		if r < horizon {
			delete(n.ord.anchors, r)
			n.ord.anchorFree = append(n.ord.anchorFree, a)
		}
	}
	for r := range n.tcs {
		if r < horizon {
			delete(n.tcs, r)
		}
	}
	for r := range n.nvcs {
		if r < horizon {
			delete(n.nvcs, r)
		}
	}
	for r := range n.timeoutAggs {
		if r < horizon {
			delete(n.timeoutAggs, r)
		}
	}
	for r := range n.novoteAggs {
		if r < horizon {
			delete(n.novoteAggs, r)
		}
	}
	for r := range n.timedOutRound {
		if r < horizon {
			delete(n.timedOutRound, r)
		}
	}
	for pos := range n.ord.pendingInsert {
		if pos.Round < horizon {
			delete(n.ord.pendingInsert, pos)
		}
	}
	for pos := range n.ord.waitingChild {
		if pos.Round < horizon {
			n.parentIn(pos) // below the horizon a parent counts as present
		}
	}
	for pos := range n.ord.lateVertices {
		if pos.Round < horizon {
			delete(n.ord.lateVertices, pos)
		}
	}
	for pos := range n.ord.pulls {
		if pos.Round < horizon {
			delete(n.ord.pulls, pos)
		}
	}
	n.gcReputation(horizon)
}
