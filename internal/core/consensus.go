package core

import (
	"clanbft/internal/crypto"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// This file is the view layer shared by the rbc and order stages: vertex
// structural validation, round progression (propose/tryAdvance), and the
// timeout / no-vote certificate machinery that lets rounds advance without
// their leader. The commit rule and total ordering live in stage_order.go.

// validateVertex checks the structural rules a round-r vertex must satisfy
// before this party echoes it:
//
//   - >= 2f+1 strong edges, all to round r-1 positions in strictly ascending
//     source order — the canonical order, the one the wire bitmap decodes
//     to, which also makes them distinct (round 0 vertices carry none);
//   - a strong edge to round r-1's leader vertex, OR a valid timeout
//     certificate for round r-1 justifying progress without it;
//   - if the vertex IS round r's leader vertex and lacks the leader edge, a
//     valid no-vote certificate for round r-1 as well (Sailfish's leader
//     hand-off rule);
//   - in single-clan mode, only clan members may carry a payload digest
//     (Section 5: "only the parties in the clan are permitted to act as
//     proposers");
//   - the source must be a member of round r's epoch, the declared epoch
//     number must match this party's epoch table for round r, and every
//     strong edge must point at a member of round r-1's epoch. A vertex
//     whose epoch this party has not scheduled yet is rejected and
//     re-fetched later via the timeout/pull machinery — the propose
//     throttle guarantees its honest proposer has processed the scheduling
//     commit, which this party will also reach.
//
// certified relaxes the leader-edge/TC rule: it is set on the pull path,
// where the vertex arrives pinned by an echo certificate. The quorum behind
// the certificate contains at least f+1 honest parties that ran the full
// check in real time — when their reputation tables for the round were
// final. A catching-up party cannot re-run that check faithfully (its table
// lags its delivery frontier, and the leader it derives for the previous
// round may be stale), so it trusts the certificate instead of rejecting
// valid history.
func (n *Node) validateVertex(v *types.Vertex, certified bool) bool {
	ep := n.epochOf(v.Round)
	if !ep.isMember[v.Source] || v.Epoch != ep.Num {
		return false
	}
	if n.cfg.Mode == ModeSingleClan && ep.clanOf[v.Source] == types.NoClan && !v.BlockDigest.IsZero() {
		return false
	}
	if v.Round == 0 {
		return len(v.StrongEdges) == 0
	}
	pep := n.epochOf(v.Round - 1)
	if len(v.StrongEdges) < 2*pep.F+1 {
		return false
	}
	for i, e := range v.StrongEdges {
		if e.Round != v.Round-1 || int(e.Source) >= n.cfg.N || !pep.isMember[e.Source] ||
			(i > 0 && e.Source <= v.StrongEdges[i-1].Source) {
			return false
		}
	}
	for _, e := range v.WeakEdges {
		if e.Round >= v.Round-1 {
			return false
		}
	}
	if !v.LacksValid() {
		return false // the decoder refuses it too; in-process transports do not decode
	}
	if !certified {
		prev := v.Round - 1
		if !v.HasStrongEdgeTo(types.Position{Round: prev, Source: n.order.Leader(prev)}) {
			if v.TC == nil || v.TC.Round != prev || !n.validViewCert(prev, v.TC.Agg, false, false) {
				return false
			}
			if v.Source == n.order.Leader(v.Round) {
				if v.NVC == nil || v.NVC.Round != prev || !n.validViewCert(prev, v.NVC.Agg, true, false) {
					return false
				}
			}
		}
	}
	return true
}

// validViewCert checks a timeout or (noVote) no-vote certificate for round
// r: a quorum of round r's members signed it. preVerified skips the aggregate
// check when the transport's verify pool already ran it (TCMsg traffic);
// certificates embedded in vertices always verify inline.
func (n *Node) validViewCert(r types.Round, agg types.AggSig, noVote, preVerified bool) bool {
	cnt, _, inRange := n.ruleEpoch(r).Signers(n.cfg.N, agg.Bitmap, types.NoClan)
	if !inRange || cnt < n.quorum(r) {
		return false
	}
	ok := preVerified || viewCertSigOK(n.cfg.Reg, r, noVote, agg)
	n.clk.Charge(n.cfg.Costs.AggVerify)
	return ok
}

// ---------------------------------------------------------------------------
// Round progression.

// tryAdvance proposes the next round(s) whenever the progression rule is
// satisfied: >= 2f+1 round-r vertices delivered AND (round r's leader vertex
// delivered, OR we hold TC_r — with the extra NVC_r requirement when this
// party is round r+1's leader).
//
// Advancement is throttled by the epoch fence rule: proposing round r is
// justified either by commit coverage (a processed leader commit at round
// >= r-ReconfigDelay — the commit chain proves every fence below r is
// installed) or by quorum evidence (maxQuorumRound >= r-1: a delivered 2f+1
// quorum plus the leader, counted exclusively from vertices whose declared
// epoch matched this party's table — had this party missed a fence at or
// below that round, the >= f+1 honest vertices in the quorum would have
// declared the newer epoch and been rejected at intake, so no quorum could
// have formed). Beyond both bounds the party waits; ordering catches up
// through the pull machinery and drainCommits re-runs tryAdvance.
func (n *Node) tryAdvance() {
	limit := n.lastCommitRound + n.cfg.ReconfigDelay
	if n.maxQuorumRound+1 > limit {
		limit = n.maxQuorumRound + 1
	}
	for {
		r := n.round
		if len(n.rbc.Delivered(r)) >= n.quorum(r) {
			ok := n.primaryIn(r)
			// Pipelined-anchor pacing: with the quorum and the primary in,
			// hold the next proposal for the remaining anchors — a vote for
			// every anchor keeps them all on the 3-delta direct-commit path,
			// and an anchor that misses its quorum holds up the slots behind
			// it for two rounds (decideSlot). The hold ends the moment they
			// are all in, anchorWait at the latest, and applies only at the
			// frontier: during catch-up the missing anchors are not coming,
			// and after a waiver or timeout the round advances as before.
			if ok && r >= n.maxQuorumRound &&
				n.anchorWaived != r+1 && !n.allAnchorsIn(r) {
				n.armAnchorTimer(r)
				return
			}
			if !ok && n.viewCert(r, false) != nil {
				ok = n.order.Leader(r+1) != n.cfg.Self || n.viewCert(r, true) != nil
			}
			if ok {
				if r+1 > limit {
					return // throttled: wait for commits to advance
				}
				n.advanceTo(r + 1)
				continue
			}
		}
		// Round-jump catch-up: a node that fell behind (slow link,
		// crash-recovery) observes a full quorum with the leader at a
		// later round and resumes from there. The skipped rounds need no
		// proposal from this party — the quorum proves the network
		// moved on without it.
		if n.maxQuorumRound > n.round {
			if n.maxQuorumRound+1 > limit {
				return // throttled: order the backlog first
			}
			n.advanceTo(n.maxQuorumRound + 1)
			continue
		}
		return
	}
}

// allAnchorsIn reports whether every anchor of round r worth waiting for has
// delivered (the caller has checked the primary). A member that delivered
// nothing in round r-1 either is not waited for: it is down, and holding
// every round for it would tax the whole run. This is pacing only — each
// party may judge it differently.
func (n *Node) allAnchorsIn(r types.Round) bool {
	for k := n.order.Anchors(r) - 1; k > 0; k-- {
		src := n.order.LeaderAt(r, k)
		if !n.delivered(types.Position{Round: r, Source: src}) && (r == 0 || n.delivered(types.Position{Round: r - 1, Source: src})) {
			return false
		}
	}
	return true
}

// armAnchorTimer bounds the pipelined-anchor wait for round r: when it fires
// the round is waived and advancement proceeds without the missing anchors.
func (n *Node) armAnchorTimer(r types.Round) {
	if !n.anchorTimer.IsZero() {
		if n.anchorTimerRound == r {
			return
		}
		n.anchorTimer.Stop()
	}
	n.anchorTimerRound = r
	n.anchorHolding, n.anchorHeldAt = true, n.now
	n.anchorTimer = n.clk.After(anchorWait, n.anchorFired)
}

// stopAnchorTimer disarms any pending pipelined-anchor wait (the round is
// advancing or the node is shutting down).
func (n *Node) stopAnchorTimer() {
	n.anchorTimer.Stop()
	n.anchorTimer = transport.Timer{}
	n.endAnchorHold()
}

// endAnchorHold closes the running hold, if any, and records how long the
// proposal was actually held (order.anchor_hold).
func (n *Node) endAnchorHold() {
	if n.anchorHolding {
		n.anchorHolding = false
		n.mAnchorHold.Observe(n.now - n.anchorHeldAt)
	}
}

// advanceTo moves this party to round r: members propose, observers (parties
// outside round r's epoch) just track the round so the timer-driven pull
// machinery keeps them current. An observer whose join fence has passed
// becomes a proposer here, with no special-case hand-off.
func (n *Node) advanceTo(r types.Round) {
	if n.activeAt(r) {
		n.propose(r)
		return
	}
	n.enterRound(r)
}

// enterRound is the observer's propose(): advance the round and re-arm the
// stuck-round probe without emitting a proposal or signing anything.
func (n *Node) enterRound(r types.Round) {
	n.roundTimer.Stop()
	n.roundTimer = transport.Timer{}
	n.stopAnchorTimer()
	n.round = r
	n.armRoundTimer()
}

// armRoundTimer starts the leader timer for the current round; it re-arms
// itself for as long as the round stays stuck (see onRoundTimeout).
func (n *Node) armRoundTimer() {
	n.roundTimer = n.clk.After(n.cfg.RoundTimeout, n.roundFired)
}

// A party carves its own vertices 8 to an allocation (8 × 216 B fill the
// 1792 B size class), their strong edges 64 references at a time, and its
// VALs 32 at a time — but those that carry a block 4 at a time: such a VAL
// keeps its block reachable until the VALs carved with it are dropped, so
// for no more than 4 of this party's rounds.
const (
	ownVertexSlab = 8
	ownEdgeSlab   = 64
	valSlab       = 32
	blockValSlab  = 4
)

// propose emits this party's vertex for round r: strong edges to every
// delivered round r-1 vertex, weak edges to late vertices, the block to the
// party's clan, the vertex to everyone.
func (n *Node) propose(r types.Round) {
	n.roundTimer.Stop()
	n.roundTimer = transport.Timer{}
	n.stopAnchorTimer()
	n.round = r
	v := n.ownVertices.New(ownVertexSlab)
	// The proposal stamp rides inside the signed vertex: OrderedAt minus
	// this is the vertex's end-to-end consensus latency (the latency spine).
	*v = types.Vertex{Round: r, Source: n.cfg.Self, Epoch: n.epochOf(r).Num,
		CreatedAt: int64(n.now)}
	// Membership transactions ride in the vertex: vertices replicate
	// tribe-wide, so the committed ReconfigTx reaches every party —
	// observers included — as ordered state-machine input.
	if len(n.pendingReconfig) > 0 {
		v.Reconfig = n.pendingReconfig
		n.pendingReconfig = nil
	}

	if r > 0 {
		prev := r - 1
		parents := n.rbc.Delivered(prev)
		v.StrongEdges = n.ownEdges.Take(len(parents), ownEdgeSlab)
		for _, pv := range parents {
			v.StrongEdges = append(v.StrongEdges, pv.Ref())
		}
		if !n.primaryIn(prev) {
			tc := n.viewCert(prev, false)
			if tc == nil {
				panic("core: propose without leader or TC")
			}
			v.TC = tc
			if n.cfg.Self == n.order.Leader(r) {
				nvc := n.viewCert(prev, true)
				if nvc == nil {
					panic("core: leader propose without NVC")
				}
				v.NVC = nvc
			}
		}
		for pos, lv := range n.ord.lateVertices {
			if pos.Round < n.dag.MinRound() || n.dag.IsOrdered(pos) || pos.Round >= r-1 {
				delete(n.ord.lateVertices, pos)
				continue
			}
			v.WeakEdges = append(v.WeakEdges, lv.Ref())
			delete(n.ord.lateVertices, pos)
		}
		// Blocks an earlier proposal listed as lacking and that have arrived
		// since: an edge without the exception tells the clan so.
		owed := n.rbc.owed[:0]
		for _, ref := range n.rbc.owed {
			switch {
			case ref.Round < n.dag.MinRound(): // the horizon has released it
			case ref.Round+1 < r:
				v.WeakEdges = append(v.WeakEdges, ref)
			default:
				owed = append(owed, ref) // too recent for a weak edge
			}
		}
		n.rbc.owed = owed
	}

	// Attach the payload if this party proposes blocks in round r's epoch.
	var blk *types.Block
	if n.epochOf(r).clanOf[n.cfg.Self] != types.NoClan && n.cfg.Blocks != nil {
		blk = n.cfg.Blocks.NextBlock(r)
		if blk != nil {
			blk.Round, blk.Source = r, n.cfg.Self
			if blk.CreatedAt == 0 {
				blk.CreatedAt = int64(n.now)
			}
			n.clk.Charge(n.cfg.Costs.HashCost(blk.PayloadBytes()))
			v.BlockDigest = blk.DigestCached()
			n.cacheBlock(v.BlockDigest, blk)
			if n.cfg.Store != nil {
				// Staged only: persistProposal flushes the block and the
				// proposal record as one atomic batch below.
				n.wb.Reset()
				n.wb.PutOwned(blockKey(v.BlockDigest), blk.Marshal(nil))
				n.clk.Charge(n.cfg.Costs.StoreWrite)
			}
			n.Metrics.BlocksProposed++
		}
	}

	v.NormalizeEdges()
	// The clan reads this vertex as "I hold the block of every vertex of ours
	// I reference"; name the ones that would make it untrue.
	for i, k := 0, v.NumEdges(); i < k; i++ {
		if in := n.rbc.Get(v.Edge(i).Pos()); in != nil && in.Vertex() != nil && n.lacksBlock(in.Vertex()) {
			v.Lacks = append(v.Lacks, uint32(i))
			in.X.lacked = true
		}
	}
	d := v.DigestCached()
	// Write-ahead record of this proposal: a recovered node must never
	// propose twice in one round (equivocation).
	n.persistProposal(r, d)
	n.Metrics.VerticesProposed++
	n.sendVal(v, blk)

	n.armRoundTimer()
}

// ---------------------------------------------------------------------------
// Timeouts, no-votes, certificates.

// view is a round's view-change record: whether this party timed the round
// out, and for each kind of vote (voteKind) the aggregate being assembled
// and, once that reaches the round's quorum, the certificate — the TC of
// timeouts, the NVC of no-votes. gc drops it with the round.
type view struct {
	timedOut bool
	aggs     [2]*crypto.Aggregator
	certs    [2]*types.ViewCert
}

// voteKind indexes a view's aggregates and certificates: timeouts at 0,
// no-votes at 1.
func voteKind(noVote bool) int {
	if noVote {
		return 1
	}
	return 0
}

// viewAt returns round r's view-change record, making it on first use.
func (n *Node) viewAt(r types.Round) *view {
	v := n.views[r]
	if v == nil {
		v = &view{}
		n.views[r] = v
	}
	return v
}

// viewCert returns round r's TC, or (noVote) its NVC: nil while there is none.
func (n *Node) viewCert(r types.Round, noVote bool) *types.ViewCert {
	if v := n.views[r]; v != nil {
		return v.certs[voteKind(noVote)]
	}
	return nil
}

func (n *Node) onRoundTimeout() {
	r := n.round
	if !n.primaryIn(r) {
		if v := n.viewAt(r); !v.timedOut {
			v.timedOut = true
			n.Metrics.Timeouts++
		}
	}
	// Retransmit the stall-breaking state: one-shot sends are not enough
	// under message loss (pre-GST drops, partitions) — a healed network
	// must be able to reassemble timeout certificates and re-fetch the
	// round's vertices, so re-broadcast until the round advances.
	// Observers never sign view-change artifacts (their partials would not
	// count toward any quorum); they still run the pull re-drive below.
	if n.activeAt(r) && !n.primaryIn(r) {
		if tc := n.viewCert(r, false); tc != nil {
			n.broadcast(&types.TCMsg{TC: *tc})
		} else {
			n.broadcast(n.signViewVote(r, false))
			n.send(n.order.Leader(r+1), n.signViewVote(r, true))
		}
	}
	// Re-drive the stuck round's RBCs. Under message loss the one-shot
	// VAL/ECHO sends may have reached too few parties for any certificate
	// to exist, so retransmit this party's own contributions (both are
	// idempotent at receivers; for its own position the VAL is the echo)
	// and pull what peers already certified.
	for src := 0; src < n.cfg.N; src++ {
		if !n.epochOf(r).isMember[src] {
			continue // no vertex to re-drive from a non-member
		}
		pos := types.Position{Round: r, Source: types.NodeID(src)}
		in := n.inst(pos)
		v := in.Vertex()
		if in.Delivered() {
			continue
		}
		if pos.Source == n.cfg.Self && v != nil {
			n.sendVal(v, n.blockFor(v.BlockDigest))
		}
		if in.Echoed() && v != nil {
			n.queueEcho(pos, v.DigestCached())
		}
		n.pull(pos, in)
	}
	n.flushEchoes()   // a timer is not always part of a drain
	n.armRoundTimer() // still stuck
}

// signViewVote signs this party's timeout, or (noVote) no-vote, for round r.
func (n *Node) signViewVote(r types.Round, noVote bool) *types.ViewVoteMsg {
	sig := n.cfg.Reg.SignFor(n.cfg.Key, viewCtx(r, noVote))
	n.clk.Charge(n.cfg.Costs.EdSign)
	return &types.ViewVoteMsg{NoVote: noVote, Vote: types.ViewVote{Round: r, Voter: n.cfg.Self, Sig: sig}}
}

// onViewVote folds a member's signed timeout or no-vote for its round r into
// r's aggregate of that kind, and makes the certificate once the aggregate
// reaches r's quorum. The two kinds differ twice: a no-vote counts only at
// round r+1's leader, to whom it is addressed, and only a timeout
// certificate is broadcast.
func (n *Node) onViewVote(from types.NodeID, m *types.ViewVoteMsg) {
	vote, k := m.Vote, voteKind(m.NoVote)
	r := vote.Round
	if from != vote.Voter || n.viewCert(r, m.NoVote) != nil || n.gcdRound(r) {
		return
	}
	if !n.epochOf(r).isMember[vote.Voter] {
		return // only round r's members vote in its view change
	}
	if m.NoVote && n.order.Leader(r+1) != n.cfg.Self {
		return // no-votes are addressed to the next round's leader
	}
	if !m.PreVerified() && !viewVoteSigOK(n.cfg.Reg, m) {
		return
	}
	n.clk.Charge(n.cfg.Costs.EdVerify)
	v := n.viewAt(r)
	agg := v.aggs[k]
	if agg == nil {
		agg = crypto.NewAggregator(n.cfg.N)
		v.aggs[k] = agg
	}
	if types.BitmapHas(agg.Bitmap(), vote.Voter) {
		return
	}
	agg.Add(vote.Voter, n.cfg.Reg.PartialFor(vote.Voter, viewCtx(r, m.NoVote)))
	n.clk.Charge(n.cfg.Costs.AggFold)
	if agg.Count() < n.quorum(r) {
		return
	}
	cert := &types.ViewCert{Round: r, Agg: agg.Sig()}
	v.aggs[k], v.certs[k] = nil, cert
	if !m.NoVote {
		n.broadcast(&types.TCMsg{TC: *cert})
	}
	n.tryAdvance()
}

func (n *Node) onTCMsg(m *types.TCMsg) {
	r := m.TC.Round
	if n.viewCert(r, false) != nil || n.gcdRound(r) {
		return
	}
	if !n.validViewCert(r, m.TC.Agg, false, m.PreVerified()) {
		return
	}
	tc := m.TC
	n.viewAt(r).certs[voteKind(false)] = &tc
	n.tryAdvance()
}

// sendVal signs v and sends this party's VAL: the vertex to the whole
// universe — observers track the DAG so they can join at a fence without a
// cold start — and the block only to the proposer's clan. Each of the two
// variants is one Multicast, so the transport encodes it once however many
// peers receive it. The timeout re-drive calls it again for a stuck round;
// receivers treat the repeat as idempotent.
func (n *Node) sendVal(v *types.Vertex, blk *types.Block) {
	var buf ctxBuf
	sig := n.cfg.Reg.SignFor(n.cfg.Key, vertexCtx(&buf, v.DigestCached()))
	n.clk.Charge(n.cfg.Costs.EdSign)
	// One backing array, two ascending runs: block recipients, then the rest.
	clanOf := n.epochOf(v.Round).clanOf
	inClan := func(id int) bool {
		return blk != nil && clanOf[n.cfg.Self] != types.NoClan && clanOf[id] == clanOf[n.cfg.Self]
	}
	ids := n.valTo[:0]
	for i := 0; i < n.cfg.N; i++ {
		if inClan(i) {
			ids = append(ids, types.NodeID(i))
		}
	}
	full := len(ids)
	for i := 0; i < n.cfg.N; i++ {
		if !inClan(i) {
			ids = append(ids, types.NodeID(i))
		}
	}
	if full > 0 {
		m := n.blockVals.New(blockValSlab) // full > 0: blk is not nil
		m.Vertex, m.Block, m.Sig = v, blk, sig
		n.multicast(ids[:full], m)
	}
	if full < len(ids) {
		m := n.vals.New(valSlab)
		m.Vertex, m.Sig = v, sig
		n.multicast(ids[full:], m)
	}
	n.valTo = ids
}
