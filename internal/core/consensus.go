package core

import (
	"clanbft/internal/crypto"
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
	if !ep.isMember[v.Source] || v.Epoch != ep.num {
		return false
	}
	if n.cfg.Mode == ModeSingleClan && n.blockClanAt(v.Round, v.Source) == types.NoClan && !v.BlockDigest.IsZero() {
		return false
	}
	if v.Round == 0 {
		return len(v.StrongEdges) == 0
	}
	pep := n.epochOf(v.Round - 1)
	if len(v.StrongEdges) < 2*pep.f+1 {
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
		if !v.HasStrongEdgeTo(types.Position{Round: prev, Source: n.leader(prev)}) {
			if v.TC == nil || v.TC.Round != prev || !n.validTC(v.TC, false) {
				return false
			}
			if v.Source == n.leader(v.Round) {
				if v.NVC == nil || v.NVC.Round != prev || !n.validNVC(v.NVC) {
					return false
				}
			}
		}
	}
	return true
}

// validTC checks a timeout certificate. preVerified skips the aggregate
// check when the transport's verify pool already ran it (TCMsg traffic);
// certificates embedded in vertices always verify inline.
func (n *Node) validTC(tc *types.TimeoutCert, preVerified bool) bool {
	cnt, inRange := memberCount(n.epochOf(tc.Round), n.cfg.N, tc.Agg.Bitmap)
	if !inRange || cnt < n.quorum(tc.Round) {
		return false
	}
	ok := preVerified || n.cfg.Reg.VerifyAgg(timeoutCtx(tc.Round), tc.Agg)
	n.clk.Charge(n.cfg.Costs.AggVerify)
	return ok
}

func (n *Node) validNVC(nvc *types.NoVoteCert) bool {
	cnt, inRange := memberCount(n.epochOf(nvc.Round), n.cfg.N, nvc.Agg.Bitmap)
	if !inRange || cnt < n.quorum(nvc.Round) {
		return false
	}
	ok := n.cfg.Reg.VerifyAgg(novoteCtx(nvc.Round), nvc.Agg)
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
		if len(n.deliveredIn(r)) >= n.quorum(r) {
			ok := n.primaryIn(r)
			// Pipelined-anchor pacing: with the quorum and the primary in,
			// hold the next proposal for the remaining anchors — a vote for
			// every anchor keeps them all on the 3-delta direct-commit path,
			// and an anchor that misses its quorum holds up the slots behind
			// it for two rounds (decideSlot). The hold ends the moment they
			// are all in, AnchorWait at the latest, and applies only at the
			// frontier: during catch-up the missing anchors are not coming,
			// and after a waiver or timeout the round advances as before.
			if ok && n.cfg.AnchorWait > 0 && r >= n.maxQuorumRound &&
				n.anchorWaived != r+1 && !n.allAnchorsIn(r) {
				n.armAnchorTimer(r)
				return
			}
			if !ok && n.tcs[r] != nil {
				ok = n.leader(r+1) != n.cfg.Self || n.nvcs[r] != nil
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
	in := func(row *rbcRow, src types.NodeID) bool { v := row.get(src); return v != nil && v.delivered }
	cur, prev := n.rbc.insts[r], n.rbc.insts[r-1] // no round -1: a nil row
	for k := n.anchorsAt(r) - 1; k > 0; k-- {
		src := n.leaderAt(r, k)
		if !in(cur, src) && (r == 0 || in(prev, src)) {
			return false
		}
	}
	return true
}

// armAnchorTimer bounds the pipelined-anchor wait for round r: when it fires
// the round is waived and advancement proceeds without the missing anchors.
func (n *Node) armAnchorTimer(r types.Round) {
	if n.anchorTimer != nil {
		if n.anchorTimerRound == r {
			return
		}
		n.anchorTimer.Stop()
	}
	n.anchorTimerRound = r
	n.anchorHolding, n.anchorHeldAt = true, n.clk.Now()
	n.anchorTimer = n.clk.After(n.cfg.AnchorWait, n.anchorFired)
}

// anchorTimerFired is the anchor timer's one callback (n.anchorFired): the
// round it waives is the one the timer was last armed for.
func (n *Node) anchorTimerFired() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped || n.anchorTimer == nil {
		return
	}
	n.anchorTimer = nil
	n.endAnchorHold()
	n.anchorWaived = n.anchorTimerRound + 1
	n.tryAdvance()
}

// stopAnchorTimer disarms any pending pipelined-anchor wait (the round is
// advancing or the node is shutting down).
func (n *Node) stopAnchorTimer() {
	if n.anchorTimer != nil {
		n.anchorTimer.Stop()
		n.anchorTimer = nil
	}
	n.endAnchorHold()
}

// endAnchorHold closes the running hold, if any, and records how long the
// proposal was actually held (order.anchor_hold).
func (n *Node) endAnchorHold() {
	if n.anchorHolding {
		n.anchorHolding = false
		n.mAnchorHold.Observe(n.clk.Now() - n.anchorHeldAt)
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
	if n.roundTimer != nil {
		n.roundTimer.Stop()
		n.roundTimer = nil
	}
	n.stopAnchorTimer()
	n.round = r
	n.armRoundTimer()
}

// armRoundTimer starts the leader timer for the current round; it re-arms
// itself for as long as the round stays stuck (see onRoundTimeout).
func (n *Node) armRoundTimer() {
	n.roundTimer = n.clk.After(n.cfg.RoundTimeout, n.roundFired)
}

// roundTimerFired is the round timer's one callback (n.roundFired). The timer
// is stopped before the round moves, so the round it fires for is n.round.
func (n *Node) roundTimerFired() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped || n.roundTimer == nil {
		return
	}
	n.roundTimer = nil
	n.onRoundTimeout()
}

// propose emits this party's vertex for round r: strong edges to every
// delivered round r-1 vertex, weak edges to late vertices, the block to the
// party's clan, the vertex to everyone.
func (n *Node) propose(r types.Round) {
	if n.roundTimer != nil {
		n.roundTimer.Stop()
		n.roundTimer = nil
	}
	n.stopAnchorTimer()
	n.round = r
	// The proposal stamp rides inside the signed vertex: OrderedAt minus
	// this is the vertex's end-to-end consensus latency (the latency spine).
	v := &types.Vertex{Round: r, Source: n.cfg.Self, Epoch: n.epochOf(r).num,
		CreatedAt: int64(n.clk.Now())}
	// Membership transactions ride in the vertex: vertices replicate
	// tribe-wide, so the committed ReconfigTx reaches every party —
	// observers included — as ordered state-machine input.
	if len(n.pendingReconfig) > 0 {
		v.Reconfig = n.pendingReconfig
		n.pendingReconfig = nil
	}

	if r > 0 {
		prev := r - 1
		parents := n.deliveredIn(prev)
		v.StrongEdges = make([]types.VertexRef, 0, len(parents))
		for _, pv := range parents {
			v.StrongEdges = append(v.StrongEdges, pv.Ref())
		}
		if !n.primaryIn(prev) {
			tc := n.tcs[prev]
			if tc == nil {
				panic("core: propose without leader or TC")
			}
			v.TC = tc
			if n.cfg.Self == n.leader(r) {
				nvc := n.nvcs[prev]
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
	if n.blockClanAt(r, n.cfg.Self) != types.NoClan && n.cfg.Blocks != nil {
		blk = n.cfg.Blocks.NextBlock(r)
		if blk != nil {
			blk.Round, blk.Source = r, n.cfg.Self
			if blk.CreatedAt == 0 {
				blk.CreatedAt = int64(n.clk.Now())
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
		if in := n.instIfAny(v.Edge(i).Pos()); in != nil && in.vertex != nil &&
			n.wantsBlock(in.vertex) && !n.holdsBlock(in.vertex) {
			v.Lacks = append(v.Lacks, uint32(i))
			in.lacked = true
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

func (n *Node) onRoundTimeout() {
	r := n.round
	if !n.timedOutRound[r] && !n.primaryIn(r) {
		n.timedOutRound[r] = true
		n.Metrics.Timeouts++
	}
	// Retransmit the stall-breaking state: one-shot sends are not enough
	// under message loss (pre-GST drops, partitions) — a healed network
	// must be able to reassemble timeout certificates and re-fetch the
	// round's vertices, so re-broadcast until the round advances.
	// Observers never sign view-change artifacts (their partials would not
	// count toward any quorum); they still run the pull re-drive below.
	if n.cfg.Key != nil && n.activeAt(r) && !n.primaryIn(r) {
		if tc := n.tcs[r]; tc != nil {
			n.broadcast(&types.TCMsg{TC: *tc})
		} else {
			tsig := n.cfg.Reg.SignFor(n.cfg.Key, timeoutCtx(r))
			n.clk.Charge(n.cfg.Costs.EdSign)
			n.broadcast(&types.TimeoutMsg{TO: types.Timeout{Round: r, Voter: n.cfg.Self, Sig: tsig}})
			nsig := n.cfg.Reg.SignFor(n.cfg.Key, novoteCtx(r))
			n.clk.Charge(n.cfg.Costs.EdSign)
			n.send(n.leader(r+1), &types.NoVoteMsg{NV: types.NoVote{Round: r, Voter: n.cfg.Self, Sig: nsig}})
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
		if in.delivered {
			continue
		}
		if pos.Source == n.cfg.Self && in.vertex != nil {
			n.sendVal(in.vertex, n.blockFor(in.vertex.BlockDigest))
		}
		if in.echoSent && in.vertex != nil {
			n.queueEcho(pos, in.vertex.DigestCached())
		}
		n.maybeStartVtxPull(pos, in)
	}
	n.flushEchoes()   // a timer is not always part of a drain
	n.armRoundTimer() // still stuck
}

func (n *Node) onTimeout(from types.NodeID, m *types.TimeoutMsg) {
	r := m.TO.Round
	if from != m.TO.Voter || n.tcs[r] != nil || n.gcdRound(r) {
		return
	}
	if !n.epochOf(r).isMember[m.TO.Voter] {
		return // only round r's members vote in its view change
	}
	ctx := timeoutCtx(r)
	if !m.PreVerified() && !n.cfg.Reg.Verify(m.TO.Voter, ctx, m.TO.Sig) {
		return
	}
	n.clk.Charge(n.cfg.Costs.EdVerify)
	agg, ok := n.timeoutAggs[r]
	if !ok {
		agg = crypto.NewAggregator(n.cfg.N)
		n.timeoutAggs[r] = agg
	}
	if types.BitmapHas(agg.Bitmap(), m.TO.Voter) {
		return
	}
	agg.Add(m.TO.Voter, n.cfg.Reg.PartialFor(m.TO.Voter, ctx))
	n.clk.Charge(n.cfg.Costs.AggFold)
	if agg.Count() >= n.quorum(r) {
		tc := &types.TimeoutCert{Round: r, Agg: agg.Sig()}
		n.tcs[r] = tc
		delete(n.timeoutAggs, r)
		n.broadcast(&types.TCMsg{TC: *tc})
		n.tryAdvance()
	}
}

func (n *Node) onTCMsg(from types.NodeID, m *types.TCMsg) {
	r := m.TC.Round
	if n.tcs[r] != nil || n.gcdRound(r) {
		return
	}
	if !n.validTC(&m.TC, m.PreVerified()) {
		return
	}
	tc := m.TC
	n.tcs[r] = &tc
	n.tryAdvance()
}

func (n *Node) onNoVote(from types.NodeID, m *types.NoVoteMsg) {
	r := m.NV.Round
	if from != m.NV.Voter || n.nvcs[r] != nil || n.gcdRound(r) {
		return
	}
	if !n.epochOf(r).isMember[m.NV.Voter] {
		return // only round r's members vote in its view change
	}
	if n.leader(r+1) != n.cfg.Self {
		return // no-votes are addressed to the next round's leader
	}
	ctx := novoteCtx(r)
	if !m.PreVerified() && !n.cfg.Reg.Verify(m.NV.Voter, ctx, m.NV.Sig) {
		return
	}
	n.clk.Charge(n.cfg.Costs.EdVerify)
	agg, ok := n.novoteAggs[r]
	if !ok {
		agg = crypto.NewAggregator(n.cfg.N)
		n.novoteAggs[r] = agg
	}
	if types.BitmapHas(agg.Bitmap(), m.NV.Voter) {
		return
	}
	agg.Add(m.NV.Voter, n.cfg.Reg.PartialFor(m.NV.Voter, ctx))
	n.clk.Charge(n.cfg.Costs.AggFold)
	if agg.Count() >= n.quorum(r) {
		n.nvcs[r] = &types.NoVoteCert{Round: r, Agg: agg.Sig()}
		delete(n.novoteAggs, r)
		n.tryAdvance()
	}
}

// sendVal signs v and sends this party's VAL: the vertex to the whole
// universe — observers track the DAG so they can join at a fence without a
// cold start — and the block only to the proposer's clan. Each of the two
// variants is one Multicast, so the transport encodes it once however many
// peers receive it. The timeout re-drive calls it again for a stuck round;
// receivers treat the repeat as idempotent.
func (n *Node) sendVal(v *types.Vertex, blk *types.Block) {
	var sig types.SigBytes
	if n.cfg.Key != nil {
		var buf ctxBuf
		sig = n.cfg.Reg.SignFor(n.cfg.Key, vertexCtx(&buf, v.DigestCached()))
		n.clk.Charge(n.cfg.Costs.EdSign)
	}
	// One backing array, two ascending runs: block recipients, then the rest.
	var inClan map[types.NodeID]bool
	if clan := n.blockClanAt(v.Round, n.cfg.Self); blk != nil && clan != types.NoClan {
		inClan = n.epochOf(v.Round).inClan[clan]
	}
	ids := n.valTo[:0]
	for i := 0; i < n.cfg.N; i++ {
		if inClan[types.NodeID(i)] {
			ids = append(ids, types.NodeID(i))
		}
	}
	full := len(ids)
	for i := 0; i < n.cfg.N; i++ {
		if !inClan[types.NodeID(i)] {
			ids = append(ids, types.NodeID(i))
		}
	}
	if full > 0 {
		n.multicast(ids[:full], &types.ValMsg{Vertex: v, Block: blk, Sig: sig})
	}
	if full < len(ids) {
		n.multicast(ids[full:], &types.ValMsg{Vertex: v, Sig: sig})
	}
	n.valTo = ids
}
