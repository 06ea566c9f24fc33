package core

import (
	"time"

	"clanbft/internal/order"
	"clanbft/internal/types"
)

// Stage 3 of the commit pipeline: DAG insertion, and the ordering stage's
// side of internal/order. This file owns everything between an RBC-delivered
// vertex (onDelivered, called by stage_rbc.go) and a CommittedVertex handed
// to the execution stage (emitCommitted, stage_exec.go): it buffers vertices
// until their parents are in, feeds the commit rule (n.order) the seen
// proposals and the insertions, acts on each slot it orders — the out queue,
// epoch fences, reputation evidence, the GC horizon — and holds ordered
// vertices back until their blocks are here.

// orderState is the ordering stage's state, owned by the serialized handler.
type orderState struct {
	pendingInsert map[types.Position]pendingVertex // delivered, awaiting parents
	waitingChild  map[types.Position][]types.Position
	out           types.Queue[outEntry] // ordered, awaiting blocks
	// lateVertices collects vertices that missed strong-edge inclusion and
	// must be weak-edged by the next proposal (guarantees BAB validity).
	lateVertices map[types.Position]*types.Vertex
	// draining marks a running drainCommits: a quorum that forms inside it
	// (an epoch recount) is read by the running pass, not a second one.
	draining bool

	// Anchor resolution spacing for the order.anchor_gap histogram.
	lastAnchorAt  time.Duration
	haveAnchorGap bool
}

type outEntry struct {
	cv       CommittedVertex
	queuedAt time.Duration // clock reading at push
}

// primaryIn reports whether round r's primary vertex has delivered — under
// the schedule as it stands now, so a reputation or epoch change needs no
// re-marking.
func (n *Node) primaryIn(r types.Round) bool {
	return n.delivered(types.Position{Round: r, Source: n.order.Leader(r)})
}

// onDelivered runs when the merged RBC completes for a vertex: insert into
// the DAG (or buffer until parents arrive), track late vertices, advance
// rounds. A vote quorum that formed before the vertex arrived is acted on by
// its insertion.
func (n *Node) onDelivered(v *types.Vertex) {
	n.tryInsert(v)
	// NOTE: the round timer is deliberately NOT cancelled when the leader
	// vertex arrives — it doubles as the stuck-round probe that keeps
	// pulling missing vertices and re-broadcasting timeout state until
	// the round actually advances (propose() disarms it). Timeout votes
	// themselves stay gated on the leader's absence.
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
	if _, pending := n.ord.pendingInsert[pos]; pending || n.dag.Has(pos) || n.gcdRound(pos.Round) {
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
		// have completed at others while our VAL was lost pre-GST. The
		// instance's pull timer is the one in-flight mark — other children
		// waiting on the same parent ride along.
		n.pull(p, n.inst(p))
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
		key := vertexKey(pos)
		n.putOwned(key[:], v.Marshal(nil))
	}
	n.clk.Charge(n.cfg.Costs.StoreWrite)
	delete(n.ord.pendingInsert, pos)
	n.mDagVerts.Inc()
	n.mDagEdges.Add(uint64(v.NumEdges()))
	n.noteHeld(v)

	// Vertices that already missed strong-edge inclusion get weak edges in
	// our next proposal so they are eventually ordered (BAB validity).
	if v.Round+1 <= n.round {
		n.ord.lateVertices[pos] = v
	}

	n.parentIn(pos) // unblock buffered children
	if n.order.Inserted(pos) {
		n.drainCommits()
	}
}

// countVote hands a seen proposal's implicit votes to the commit rule, which
// moves the cursor for each slot that reached its quorum with them.
func (n *Node) countVote(v *types.Vertex) { n.order.Vote(v, n.drainCommits) }

// recountVotes rebuilds the tallies fed by proposals of rounds >= from out
// of the vertices the RBC stage currently holds. An epoch installing at
// `from` calls it: instances of parties that are not members of the new
// epoch were just dropped, and their votes must go with them.
func (n *Node) recountVotes(from types.Round) {
	n.order.Unvote(from)
	n.rbc.Range(func(pos types.Position, in *inst) {
		if v := in.Vertex(); v != nil && pos.Round >= from {
			n.countVote(v)
		}
	})
}

// drainCommits moves the commit rule's cursor as far as it goes (onStep acts
// on each slot it leaves), then emits what was ordered. When the cursor waits
// for a vertex — the next anchor's ancestor or the one deciding its slot —
// emission waits with it: the insertion that brings it runs the next pass.
func (n *Node) drainCommits() {
	if n.ord.draining {
		return
	}
	n.ord.draining = true
	waiting := n.order.Advance(n.onStep)
	n.ord.draining = false
	if waiting {
		return
	}
	// Whatever the pass ordered is emitted even when it ended on an open
	// fate: with an anchor in every slot there is nearly always a quorate
	// slot behind one, so "nothing left to order" cannot be the trigger.
	n.drainOut()
	// An ordered anchor raises the propose throttle; re-check round
	// advancement unless this drain runs inside the recovery replay (the
	// recovered round highwater is not restored yet at that point).
	if !n.recovering {
		n.tryAdvance()
	}
}

// onStep acts on one slot the cursor left: a passed slot is counted; an
// ordered anchor's history joins the out queue, its committed membership
// transactions are scheduled against the anchor's round, and its committed
// timeout evidence is charged. The anchor a vertex is ordered under is a
// function of the total-order prefix alone, so the epoch fence and the
// reputation apply round derived from it are identical at every party.
func (n *Node) onStep(s order.Step) {
	switch s.Fate {
	case order.Skipped, order.NotLive:
		n.mSlotsSkipped.Inc()
		return
	case order.Direct:
		n.mSlotsDirect.Inc()
	default:
		n.mSlotsIndir.Inc()
	}
	lp := s.Slot
	now := n.now
	n.mOrderCommits.Inc()
	if n.ord.haveAnchorGap {
		n.mAnchorGap.Observe(now - n.ord.lastAnchorAt)
	}
	n.ord.lastAnchorAt = now
	n.ord.haveAnchorGap = true
	var rtxs []types.ReconfigTx
	for _, v := range s.History {
		n.ord.out.Push(outEntry{CommittedVertex{
			Vertex:      v,
			LeaderRound: lp.Round,
			Direct:      s.Fate == order.Direct,
		}, now})
		n.mOrderVerts.Inc()
		rtxs = append(rtxs, v.Reconfig...)
		// Committed view-change evidence feeds the reputation schedule: a
		// TC or NVC ordered through the DAG charges the leader whose slot
		// timed out.
		if v.TC != nil && n.order.Offense(v.TC.Round, lp.Round) {
			n.Metrics.ReputationOffenses++
		}
		if v.NVC != nil && n.order.Offense(v.NVC.Round, lp.Round) {
			n.Metrics.ReputationOffenses++
		}
	}
	n.Metrics.LastOrderedRound = lp.Round
	if lp.Round > n.lastCommitRound {
		n.lastCommitRound = lp.Round
	}
	if len(rtxs) > 0 {
		n.scheduleEpoch(lp.Round, rtxs)
	}
	n.gc()
}

// drainOut emits ordered vertices in sequence, holding at any vertex whose
// block this party needs but has not yet received (commit runs ahead of
// block download; execution order is preserved). Each emitted vertex is
// stamped with OrderedAt and handed to the execution stage.
func (n *Node) drainOut() {
	for n.ord.out.Len() > 0 {
		ent := &n.ord.out.Front(1)[0]
		cv := ent.cv
		v := cv.Vertex
		var blk *types.Block
		if n.wantsBlock(v) {
			if blk = n.blockFor(v.BlockDigest); blk == nil {
				if in := n.rbc.Get(v.Pos()); in != nil {
					n.pull(v.Pos(), in)
				}
				return
			}
			n.Metrics.TxsOrdered += blk.TxCount()
		}
		cv.Block = blk
		now := n.now
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
		n.ord.out.Drop(1)
		n.emitCommitted(cv)
		if blk != nil {
			n.blockEmitted(v)
		}
	}
}

// gc advances the garbage-collection horizon behind the last ordered leader,
// pruning every stage's per-round state: the DAG, the RBC stage (instances,
// echo waiters, block cache), the commit rule's ledgers and reputation
// state, and view-layer certificates/aggregators.
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
	for _, ent := range n.ord.out.Front(n.ord.out.Len()) {
		horizon = min(horizon, ent.cv.Vertex.Round)
	}
	if horizon <= n.dag.MinRound() {
		return
	}
	n.dag.GC(horizon)
	n.rbc.GC(horizon)
	for d, e := range n.rbc.blocks {
		// acceptBlock keeps a block only with its vertex's round, so none
		// below the horizon survives, even a vertex the certificate replaced.
		if e.blk.Round < horizon {
			n.uncacheBlock(d, e)
			n.mBlocksExpired.Inc()
		}
	}
	n.gcEpochs(horizon)
	n.order.GC(horizon)
	for r := range n.views {
		if r < horizon {
			delete(n.views, r)
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
}
