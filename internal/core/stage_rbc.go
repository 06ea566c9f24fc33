package core

import (
	"time"

	"clanbft/internal/rbc"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// Stage 2 of the commit pipeline: the merged vertex+block RBC. internal/rbc
// decides when to echo, what certifies and what delivers; this file feeds it
// verified messages and does the I/O: echo frames and the echo hold, the
// block cache, pull timers and replies. Delivered vertices go to the
// ordering stage via onDelivered (stage_order.go).

// rbcState is the RBC stage: the rule's table, whose rows carry each
// position's slot, and what core keeps beside it.
type rbcState struct {
	*rbc.Table[slot]
	// blocks caches payloads this party is entitled to, keyed by digest, for
	// as long as cachedBlock says. Read it through blockFor.
	blocks map[types.Hash]cachedBlock
	// blockBytes is the payload the cache holds (rbc.block_bytes_cached).
	blockBytes int
	// heldBits is the slab the entries' held bitmaps are carved from, N and
	// at least heldSlabMin bytes at a time: a few rounds' blocks per
	// allocation.
	heldBits types.Slab[byte]
	// owed lists vertices this party referenced while lacking their block
	// (Vertex.Lacks) and whose block it has obtained since: its next proposal
	// weak-edges them, which is how it takes the exception back.
	owed []types.VertexRef
	// echoQ holds this party's echoes since the last flush, at most N; it is
	// reused. A flushed frame's message and entries are carved from echoes
	// and entries, so a frame allocates once per block of them.
	echoQ   []types.EchoEntry
	echoes  types.Slab[types.EchoMsg]
	entries types.Slab[types.EchoEntry]
	// batchSeen and batchQueue are sendAncestorBatch's scratch.
	batchSeen  map[types.Position]bool
	batchQueue types.Queue[types.Position]
}

type inst = rbc.Inst[slot]

// slot is core's part of an instance.
type slot struct {
	// born is when the instance was made (rbc.latency: born -> delivered).
	born time.Duration
	// pull re-sends a pull with evidence until it is answered (pull);
	// cursor rotates its target.
	pull   transport.Timer
	cursor int
	// emitted: this party's execution stage has the vertex, and its block
	// with it — the cache is free to drop it and must not take it back.
	emitted bool
	// lacked: a proposal of this party lists the vertex in its Lacks.
	lacked bool
}

// stop cancels the slot's pull timer (the table calls it on every instance
// it drops).
func (s *slot) stop() { stopTimer(&s.pull) }

func stopTimer(t *transport.Timer) {
	t.Stop()
	*t = transport.Timer{}
}

// cachedBlock is a block-cache entry. A block stays cached until this party
// has handed it to its execution stage (slot.emitted) and every other member
// of its clan is known to hold it — whichever comes last evicts it — and in
// any case no longer than the GC horizon, which is all that bounds the cache
// when a member stays silent.
type cachedBlock struct {
	blk *types.Block
	// held marks the other clan members known to hold the block: its
	// proposer, and every member one of whose vertices said so (noteHeld).
	held []byte
}

// ruleEpoch is what internal/rbc reads of round r's epoch.
func (n *Node) ruleEpoch(r types.Round) rbc.Epoch {
	ep := n.epochOf(r)
	return rbc.Epoch{F: ep.F, IsMember: ep.isMember, ClanOf: ep.clanOf, Fc: ep.fcOf}
}

// inst returns the instance at pos, making it if there is none.
func (n *Node) inst(pos types.Position) *inst {
	in, fresh := n.rbc.Inst(pos)
	if fresh {
		in.X.born = n.now
	}
	return in
}

// delivered reports whether pos's merged RBC has completed here.
func (n *Node) delivered(pos types.Position) bool {
	in := n.rbc.Get(pos)
	return in != nil && in.Delivered()
}

// gcdRound reports whether round r is outside the window this party tracks:
// below the GC horizon, or so far ahead of its own round that only a
// Byzantine flood, which would otherwise grow the per-round maps without
// limit, could have produced it.
func (n *Node) gcdRound(r types.Round) bool {
	if r < n.dag.MinRound() {
		return true
	}
	return r > n.round+types.Round(4*n.cfg.GCDepth)
}

// act carries out what the rule decided, in order.
func (n *Node) act(acts []rbc.Act) {
	for _, a := range acts {
		switch a.Kind {
		case rbc.Echo:
			n.queueEcho(a.Pos, a.V.DigestCached())
		case rbc.NeedVertex:
			n.pull(a.Pos, n.inst(a.Pos))
		case rbc.Deliver:
			// The vertex is in; a block it lacks is pulled now, off the
			// critical path: the certificate proves f_c+1 honest clan members
			// hold it.
			in := n.rbc.Get(a.Pos)
			stopTimer(&in.X.pull)
			n.pull(a.Pos, in)
			n.mRBCDelivered.Inc()
			n.mRBCLat.Observe(n.now - in.X.born)
			if r := a.Pos.Round; r > n.maxQuorumRound && n.primaryIn(r) && len(n.rbc.Delivered(r)) >= n.quorum(r) {
				n.maxQuorumRound = r
			}
			n.onDelivered(a.V)
		}
	}
}

// ---------------------------------------------------------------------------
// VAL: the merged RBC's first message.

func (n *Node) onVal(from types.NodeID, m *types.ValMsg) {
	// A decoded message shares a slab with other VALs' vertices, which stay
	// in the DAG, so the block leaves the message first, whether or not this
	// VAL is kept: the cache alone decides its life.
	blk := m.TakeBlock()
	v := m.Vertex
	if v == nil || from != v.Source || int(v.Source) >= n.cfg.N {
		return
	}
	pos := v.Pos()
	// Validate before making an instance: a flood of malformed or
	// wrong-epoch vertices (refetched once their epoch installs) makes none.
	if n.gcdRound(pos.Round) || !n.validateVertex(v, false) {
		return
	}
	in := n.inst(pos)
	if in.HasVal() {
		return // only the sender's first proposal counts (non-equivocation)
	}
	d := v.DigestCached()
	if from != n.cfg.Self {
		// The verify pool may have checked this exact context already; a
		// party's own proposal needs no check at all.
		if !m.PreVerified() && !valSigOK(n.cfg.Reg, m) {
			return
		}
		n.clk.Charge(n.cfg.Costs.EdVerify)
	}
	in.Val(v)
	// The proposal is the implicit vote for the previous round's leader
	// (Sailfish's 1RBC+1delta commit path: votes are observed on the
	// FIRST message of the next round's RBC).
	n.countVote(v)
	if blk != nil {
		n.acceptBlock(v, blk)
	}
	// The VAL is its proposer's ECHO; a pulled vertex (onVtxRsp) is not.
	n.echo(pos, v.Source, d)
	n.act(n.rbc.Check(pos, types.Hash{}))
}

// acceptBlock validates and stores a block pushed or pulled for vertex v.
// Entitlement is per-epoch: the clan that receives v's payload is the clan
// assignment of the epoch owning v.Round.
func (n *Node) acceptBlock(v *types.Vertex, blk *types.Block) {
	pos := v.Pos()
	if !n.inBlockClan(n.cfg.Self, pos) {
		return // parties outside the proposer's clan never store payloads
	}
	if blk.Round != v.Round || blk.Source != v.Source {
		// The digest commits to Round/Source; a mismatch with the vertex
		// cannot be honest. Rejecting it here also keeps the round-swept
		// block cache prunable (a block claiming a far-future round would
		// otherwise pin its memory past the GC horizon).
		return
	}
	in := n.rbc.Get(pos)
	if _, ok := n.rbc.blocks[v.BlockDigest]; ok || (in != nil && in.X.emitted) {
		// Held, or executed and let go: a duplicate VAL or a late pull reply
		// must not bring an evicted block back.
		return
	}
	n.clk.Charge(n.cfg.Costs.HashCost(blk.PayloadBytes()))
	if blk.DigestCached() != v.BlockDigest {
		return // payload does not match the vertex's commitment
	}
	n.cacheBlock(v.BlockDigest, blk)
	n.Metrics.BlocksReceived++
	if n.cfg.Store != nil {
		n.putOwned(blockKey(v.BlockDigest), blk.Marshal(nil))
	}
	n.clk.Charge(n.cfg.Costs.StoreWrite)
	if in != nil {
		if in.Delivered() {
			stopTimer(&in.X.pull) // what it pulled is in
		}
		if in.X.lacked {
			in.X.lacked = false
			n.rbc.owed = append(n.rbc.owed, v.Ref())
		}
		n.act(n.rbc.Check(pos, v.BlockDigest))
	}
	n.drainOut()
}

// inBlockClan reports whether id belongs to the clan that receives the block
// of the vertex at pos, in the epoch of pos's round: the parties entitled to
// that payload.
func (n *Node) inBlockClan(id types.NodeID, pos types.Position) bool {
	clanOf := n.epochOf(pos.Round).clanOf
	return clanOf[pos.Source] != types.NoClan && clanOf[id] == clanOf[pos.Source]
}

// wantsBlock reports whether v carries a block this party is entitled to.
func (n *Node) wantsBlock(v *types.Vertex) bool {
	return !v.BlockDigest.IsZero() && n.inBlockClan(n.cfg.Self, v.Pos())
}

// blockFor is the one way to read a block: the cache, then the store when
// there is one. A party with a store can therefore always serve and always
// execute what it once accepted; the cache's eviction rule only has to be
// right for those without.
func (n *Node) blockFor(d types.Hash) *types.Block {
	if e, ok := n.rbc.blocks[d]; ok {
		return e.blk
	}
	if n.cfg.Store == nil {
		return nil
	}
	val, ok, err := n.cfg.Store.Get(blockKey(d))
	if err != nil || !ok {
		return nil
	}
	blk, err := types.UnmarshalBlock(val)
	if err != nil {
		return nil
	}
	return blk
}

// cacheBlock starts blk's cache entry. Its proposer holds it by construction.
func (n *Node) cacheBlock(d types.Hash, blk *types.Block) {
	bm := (n.cfg.N + 7) / 8
	held := n.rbc.heldBits.Take(bm, max(n.cfg.N*bm, heldSlabMin))[:bm]
	if blk.Source != n.cfg.Self {
		types.BitmapSet(held, blk.Source)
	}
	n.rbc.blocks[d] = cachedBlock{blk: blk, held: held}
	n.rbc.blockBytes += blk.PayloadBytes()
}

// uncacheBlock removes the entry e of digest d.
func (n *Node) uncacheBlock(d types.Hash, e cachedBlock) {
	delete(n.rbc.blocks, d)
	n.rbc.blockBytes -= e.blk.PayloadBytes()
}

// maybeEvict drops the cached block of digest d once nobody can need it from
// this party: its own execution stage has it, and every other member of its
// clan holds it.
func (n *Node) maybeEvict(d types.Hash, e cachedBlock) {
	pos := types.Position{Round: e.blk.Round, Source: e.blk.Source}
	if in := n.rbc.Get(pos); in == nil || !in.X.emitted {
		return
	}
	ep := n.epochOf(pos.Round)
	if types.BitmapCount(e.held) < len(ep.clans[ep.clanOf[pos.Source]])-1 {
		return
	}
	n.uncacheBlock(d, e)
	n.mBlocksEvicted.Inc()
}

// noteHeld reads the statement a clan member makes with its vertex v, just
// inserted: it holds the block of every vertex of its clan that v references,
// except at the edges v.Lacks lists. The list is what makes it a statement:
// an edge alone says nothing about payload, since a vertex is delivered, and
// so referenced, without its block. Only blocks this party caches are
// tracked, so nothing is recorded outside a block's clan.
func (n *Node) noteHeld(v *types.Vertex) {
	if v.Source == n.cfg.Self || len(n.rbc.blocks) == 0 {
		return
	}
	lacks := v.Lacks
	for i, k := 0, v.NumEdges(); i < k; i++ {
		if len(lacks) > 0 && int(lacks[0]) == i {
			lacks = lacks[1:]
			continue
		}
		pos := v.Edge(i).Pos()
		if !n.inBlockClan(n.cfg.Self, pos) || !n.inBlockClan(v.Source, pos) {
			continue
		}
		pv, ok := n.dag.Get(pos)
		if !ok {
			continue
		}
		if e, ok := n.rbc.blocks[pv.BlockDigest]; ok {
			types.BitmapSet(e.held, v.Source)
			n.maybeEvict(pv.BlockDigest, e)
		}
	}
}

// blockEmitted records that v and its block went to the execution stage.
func (n *Node) blockEmitted(v *types.Vertex) {
	if in := n.rbc.Get(v.Pos()); in != nil {
		in.X.emitted = true
		if e, ok := n.rbc.blocks[v.BlockDigest]; ok {
			n.maybeEvict(v.BlockDigest, e)
		}
	}
}

// holdsBlock reports whether this party holds v's block, or has executed it.
func (n *Node) holdsBlock(v *types.Vertex) bool {
	if _, ok := n.rbc.blocks[v.BlockDigest]; ok {
		return true
	}
	in := n.rbc.Get(v.Pos())
	return in != nil && in.X.emitted
}

// lacksBlock reports whether v carries a block this party is to hold and
// does not.
func (n *Node) lacksBlock(v *types.Vertex) bool {
	return n.wantsBlock(v) && !n.holdsBlock(v)
}

// ---------------------------------------------------------------------------
// ECHO: queueing, the echo hold, framing and counting.

// A flushed frame's message is carved from blocks of echoSlab, its entries
// from blocks of at least echoBlockMin entries; a cache entry's held bitmap
// from blocks of at least heldSlabMin bytes.
const (
	echoSlab     = 32
	echoBlockMin = 128
	heldSlabMin  = 64
)

// queueEcho queues this party's ECHO for digest d at pos. It leaves with the
// rest of the queue in one signed frame when a drain ends (inDrainEnd) and the
// echo hold does not keep it (drainEchoes), ahead of any other frame this
// party sends, and at once when the queue holds N entries, a frame's most.
func (n *Node) queueEcho(pos types.Position, d types.Hash) {
	n.rbc.echoQ = append(n.rbc.echoQ, types.EchoEntry{Pos: pos, Digest: d})
	if len(n.rbc.echoQ) >= n.cfg.N {
		n.flushEchoes()
	}
}

// drainEchoes ends a drain: the queue leaves unless the echo hold keeps it
// (echoHeld), anchorWait at the longest.
func (n *Node) drainEchoes() {
	switch {
	case !n.echoHeld(n.round):
		n.flushEchoes()
	case n.echoTimer.IsZero():
		n.echoHeldAt = n.now
		n.echoTimer = n.clk.After(anchorWait, n.echoFired)
	}
}

// echoHeld reports whether the queue may wait past a drain end: every entry
// is for the frontier round r ≥ 1 (catch-up is never held), and the round-r
// VAL of a member allAnchorsIn would wait for — one whose round r−1 vertex
// delivered here — has not been processed yet. The round cannot advance
// before its anchors deliver, so an echo sent ahead of the round's last VAL
// only costs a frame, a signature and n−1 verifications.
func (n *Node) echoHeld(r types.Round) bool {
	if len(n.rbc.echoQ) == 0 || r == 0 {
		return false
	}
	for _, e := range n.rbc.echoQ {
		if e.Pos.Round != r {
			return false
		}
	}
	for _, src := range n.epochOf(r).Members {
		if src != n.cfg.Self && n.delivered(types.Position{Round: r - 1, Source: src}) {
			if v := n.rbc.Get(types.Position{Round: r, Source: src}); v == nil || !v.HasVal() {
				return true
			}
		}
	}
	return false
}

// flushEchoes ends the echo hold, if one runs, then signs the queued echoes
// once and broadcasts them as one frame.
func (n *Node) flushEchoes() {
	if !n.echoTimer.IsZero() {
		stopTimer(&n.echoTimer)
		n.mEchoHold.Observe(n.now - n.echoHeldAt)
	}
	q := n.rbc.echoQ
	if len(q) == 0 {
		return
	}
	n.rbc.echoQ = q[:0]
	if n.stopped {
		return
	}
	m := n.rbc.echoes.New(echoSlab)
	m.Entries = append(n.rbc.entries.Take(len(q), max(2*n.cfg.N, echoBlockMin)), q...)
	m.Voter = n.cfg.Self
	var buf echoFrameBuf
	m.Sig = n.cfg.Reg.SignFor(n.cfg.Key, echoFrameCtx(&buf, m.Entries))
	n.clk.Charge(n.cfg.Costs.EdSign)
	n.mEchoFrames.Inc()
	n.ep.Broadcast(m)
}

// send, multicast and broadcast are how every frame but the echo frame leaves
// this party: behind the echoes queued before it, so the order of one
// sender's frames on the wire is the order in which the handler produced
// them.
func (n *Node) send(to types.NodeID, m types.Message) {
	n.flushEchoes()
	n.ep.Send(to, m)
}

func (n *Node) multicast(tos []types.NodeID, m types.Message) {
	n.flushEchoes()
	n.ep.Multicast(tos, m)
}

func (n *Node) broadcast(m types.Message) {
	n.flushEchoes()
	n.ep.Broadcast(m)
}

// onEcho handles one voter's ECHO frame: one signature over all its entries,
// then each entry on its own — a bad one is skipped, not the frame.
func (n *Node) onEcho(from types.NodeID, m *types.EchoMsg) {
	if from != m.Voter || len(m.Entries) > n.cfg.N {
		return // flushEchoes never queues more than N: not an honest frame
	}
	// A frame none of whose entries can count — duplicates, echoes for
	// decided or out-of-window positions — is dropped before any crypto.
	counts := false
	for i := range m.Entries {
		if n.echoCounts(m.Voter, &m.Entries[i]) {
			counts = true
			break
		}
	}
	if !counts {
		return
	}
	if from != n.cfg.Self {
		if !m.PreVerified() && !echoSigOK(n.cfg.Reg, n.cfg.N, m) {
			return
		}
		n.clk.Charge(n.cfg.Costs.EdVerify)
	}
	for i := range m.Entries {
		// Checked again: an earlier entry may have taken this voter's one
		// echo at the position, or its delivery moved the window.
		if e := &m.Entries[i]; n.echoCounts(m.Voter, e) {
			n.inst(e.Pos)
			n.echo(e.Pos, m.Voter, e.Digest)
		}
	}
}

// echoCounts reports whether voter's echo e would be tallied now: inside the
// window this party tracks, and counted by the rule (rbc.Table.Counts).
func (n *Node) echoCounts(voter types.NodeID, e *types.EchoEntry) bool {
	return int(e.Pos.Source) < n.cfg.N && !n.gcdRound(e.Pos.Round) && n.rbc.Counts(e.Pos, voter)
}

// echo hands voter's echo for digest d at pos to the rule, charging the fold
// of its partial signature when it counts.
func (n *Node) echo(pos types.Position, voter types.NodeID, d types.Hash) {
	acts, counted := n.rbc.Echo(pos, voter, d)
	if counted {
		n.clk.Charge(n.cfg.Costs.AggFold)
	}
	n.act(acts)
}

// ---------------------------------------------------------------------------
// Pulls and replies.

// pullRetry is the re-request interval for a missing block or vertex.
const pullRetry = 200 * time.Millisecond

// pull asks for what pos lacks with a VtxReq, whose reply carries the
// vertex, its certificate and, to a member of the block's clan, its block:
// an undelivered position from anyone in the tribe, the block of a delivered
// one from this party's clan. It asks one peer at a time in rotation, every
// pullRetry until what it lacks arrives while something proves the vertex
// exists: the rule's evidence (rbc.Table.Evidenced), or a delivered child
// waiting on it to enter the DAG — a delivered vertex is certified, so its
// parents exist, and an observer, which echoes nothing, or a child that came
// by pull leaves no echo in the rule to say so. Without either the pull is
// one probe: the round timer's re-drive repeats it, at the next target. A
// pull already running is left to run.
func (n *Node) pull(pos types.Position, in *inst) {
	if !in.X.pull.IsZero() {
		return
	}
	var peers []types.NodeID // nil: every party, 0..N-1
	k := n.cfg.N
	if in.Delivered() {
		if !n.lacksBlock(in.Vertex()) {
			return
		}
		ep := n.epochOf(pos.Round)
		peers = ep.clans[ep.selfClan]
		k = len(peers)
	}
	target := n.cfg.Self
	for i := 0; i < k && target == n.cfg.Self; i++ {
		if target = types.NodeID(in.X.cursor % k); peers != nil {
			target = peers[in.X.cursor%k]
		}
		in.X.cursor++
	}
	if target == n.cfg.Self {
		return
	}
	// Have, the top of what this party holds connected, keeps a reply from
	// streaming ancestors this party has.
	n.send(target, &types.VtxReqMsg{Pos: pos, Have: max(n.lastCommitRound, n.dag.MaxRound())})
	n.mPulls.Inc()
	if !n.rbc.Evidenced(pos) && len(n.ord.waitingChild[pos]) == 0 {
		return
	}
	in.X.pull = n.clk.After(pullRetry, func() { n.step(input{kind: inPullRetry, pos: pos}) })
}

func (n *Node) onVtxReq(from types.NodeID, m *types.VtxReqMsg) {
	in := n.rbc.Get(m.Pos)
	if in == nil && m.Pos.Round < n.dag.MinRound() {
		n.sendStoredBlock(from, m.Pos)
		return
	}
	if in == nil || in.Vertex() == nil {
		return
	}
	n.sendVtxRsp(from, in)
	// A requester whose connected DAG (Have) ends below the requested round
	// would catch up one round trip per level, too slow to close a gap while
	// the cluster advances: a batch of the vertex's ancestors above its
	// frontier covers many levels per round trip.
	if m.Have+1 < m.Pos.Round {
		n.sendAncestorBatch(from, in.Vertex(), m.Have)
	}
}

// sendVtxRsp ships one instance's vertex as a pull response, with its
// certificate — the requester can only accept a pulled vertex that a
// certificate pins — and its block, when the requester's clan entitles it to
// the payload.
func (n *Node) sendVtxRsp(from types.NodeID, in *inst) {
	v := in.Vertex()
	rsp := &types.VtxRspMsg{Vertex: v, Cert: in.CertMsg(v.Pos())}
	if !v.BlockDigest.IsZero() && n.inBlockClan(from, v.Pos()) {
		if rsp.Block = n.blockFor(v.BlockDigest); rsp.Block != nil {
			n.clk.Charge(n.cfg.Costs.StoreRead)
		}
	}
	n.send(from, rsp)
}

// sendStoredBlock answers a pull for a position below the horizon from the
// store: its vertex and block, to a member of the block's clan. The requester
// delivered that vertex and lacks the block (its own horizon waits for it);
// the instance that held the certificate is gone, so none rides along, and a
// requester still missing the vertex gets nothing here.
func (n *Node) sendStoredBlock(from types.NodeID, pos types.Position) {
	if n.cfg.Store == nil || int(pos.Source) >= n.cfg.N || !n.inBlockClan(from, pos) {
		return
	}
	key := vertexKey(pos)
	val, ok, err := n.cfg.Store.Get(key[:])
	if err != nil || !ok {
		return
	}
	v, err := types.UnmarshalVertex(val)
	if err != nil || v.Pos() != pos || v.BlockDigest.IsZero() {
		return
	}
	blk := n.blockFor(v.BlockDigest)
	if blk == nil {
		return
	}
	n.clk.Charge(2 * n.cfg.Costs.StoreRead)
	n.send(from, &types.VtxRspMsg{Vertex: v, Block: blk})
}

// catchupBatchMax bounds the ancestors streamed alongside one pull reply.
const catchupBatchMax = 64

// sendAncestorBatch walks v's causal history breadth-first (newest rounds
// first, in edge order) and streams up to catchupBatchMax delivered ancestors
// above the requester's frontier, each as a pull reply with its certificate,
// so the requester takes them through the pull path. The receiver drops
// duplicates of overlapping batches; the bound keeps their cost modest.
func (n *Node) sendAncestorBatch(to types.NodeID, v *types.Vertex, have types.Round) {
	// The walk's set and queue are the node's, cleared here: the handler is
	// serialized, and a pull should cost the frames it sends, no more.
	seen := n.rbc.batchSeen
	clear(seen)
	queue := &n.rbc.batchQueue
	push := func(v *types.Vertex) {
		for i, k := 0, v.NumEdges(); i < k; i++ {
			if p := v.Edge(i).Pos(); p.Round > have && !seen[p] {
				seen[p] = true
				queue.Push(p)
			}
		}
	}
	push(v)
	for sent := 0; queue.Len() > 0 && sent < catchupBatchMax; {
		pin := n.rbc.Get(queue.Front(1)[0])
		queue.Drop(1)
		if pin == nil || !pin.Delivered() {
			continue
		}
		n.sendVtxRsp(to, pin)
		sent++
		push(pin.Vertex())
	}
	queue.Drop(queue.Len())
}

func (n *Node) onVtxRsp(from types.NodeID, m *types.VtxRspMsg) {
	v := m.Vertex
	if v == nil || int(v.Source) >= n.cfg.N {
		return
	}
	pos := v.Pos()
	if n.gcdRound(pos.Round) {
		return
	}
	// The certificate first: it pins the vertex. A valid one is kept for this
	// party's own replies, in a new instance if need be (ancestor batches).
	if c := m.Cert; c != nil && c.Pos == pos && n.rbc.Valid(c) {
		n.clk.Charge(n.cfg.Costs.AggVerify)
		n.inst(pos)
		n.act(n.rbc.Adopt(c))
	}
	in := n.rbc.Get(pos)
	if in == nil {
		return
	}
	if !in.Delivered() && in.Vertex() == nil {
		// The certificate pins it (no signature needed); its structure counts.
		if !n.validateVertex(v, true) || !in.Pulled(v) {
			return
		}
		n.countVote(v)
	}
	// A delivered vertex may still lack its block: this is the reply that
	// brings it.
	if m.Block != nil {
		n.acceptBlock(in.Vertex(), m.Block)
	}
	n.act(n.rbc.Settle(pos))
}
