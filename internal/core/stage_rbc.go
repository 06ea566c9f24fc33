package core

import (
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// Stage 2 of the commit pipeline: the merged vertex+block RBC state machine.
// This file owns the per-position instance map (vinst) and everything between
// a verified inbound message and local delivery — VAL acceptance, ECHO
// voting, certificate assembly/adoption, and the block/vertex pull paths.
// Delivered vertices are handed to the ordering stage via onDelivered
// (stage_order.go).

// rbcState is the RBC stage's state, owned by the serialized handler.
type rbcState struct {
	// insts holds RBC instance state, one row per round.
	insts map[types.Round]*rbcRow
	// free holds rows gc retired, for inst to reuse. A row retired inside a
	// handler waits in retired until the next handler begins: frames up the
	// stack may still hold (and harmlessly touch) one of its instances.
	free, retired []*rbcRow
	// blocks caches payloads this party is entitled to, keyed by digest, for
	// as long as cachedBlock says. Read it through blockFor.
	blocks map[types.Hash]cachedBlock
	// blockBytes is the payload the cache holds (rbc.block_bytes_cached).
	blockBytes int
	// heldBits is the unused tail of the slab the entries' held bitmaps are
	// carved from, N at a time: about a round's blocks per allocation.
	heldBits []byte
	// owed lists vertices this party referenced while lacking their block
	// (Vertex.Lacks) and whose block it has obtained since: its next proposal
	// weak-edges them, which is how it takes the exception back.
	owed []types.VertexRef
	// echoWait parks children whose echo awaits a parent's delivery:
	// parent -> children.
	echoWait map[types.Position][]types.Position
	// echoQ holds this party's echoes since the last flush, at most N. It
	// is the used head of a block whose unused tail is its capacity: a
	// flushed frame keeps its slice of the block and the queue restarts
	// behind it, so queueing allocates once per block, not per frame.
	echoQ []types.EchoEntry
	// batchSeen and batchQueue are sendAncestorBatch's scratch.
	batchSeen  map[types.Position]bool
	batchQueue []types.Position
}

// cachedBlock is a block-cache entry. A block stays cached until this party
// has handed it to its execution stage (vinst.emitted) and every other member
// of its clan is known to hold it — whichever comes last evicts it — and in
// any case no longer than the GC horizon, which is all that bounds the cache
// when a member stays silent.
type cachedBlock struct {
	blk *types.Block
	// held marks the other clan members known to hold the block: its
	// proposer, and every member one of whose vertices said so (noteHeld).
	held []byte
}

// rbcRow is one round's instance state in one slab: an instance per source
// and the bitmap bytes their echo tallies — and so their certificates — need.
// Nothing carved from it may be reachable from a message, the DAG or the block
// cache: rows are recycled, and the in-process transports hand a receiver the
// sender's pointers. Vertices and blocks are the heap's; a certificate is
// copied out when a pull reply ships it (certMsg).
type rbcRow struct {
	at      []vinst // by source; at[s].live marks the ones in use
	bitmaps []byte  // two signer bitmaps per instance: echoVoted, the tally's
	// delivered lists the round's delivered vertices in delivery order (the
	// round quorum counts them, the next proposal's strong edges name them).
	delivered []*types.Vertex
}

// get returns the live instance of src, or nil.
func (r *rbcRow) get(src types.NodeID) *vinst {
	if r == nil || int(src) >= len(r.at) || !r.at[src].live {
		return nil
	}
	return &r.at[src]
}

// release stops the instances' timers and zeroes the row, dropping every
// pointer it held (vertices, certificates, equivocation tallies).
func (r *rbcRow) release() {
	for i := range r.at {
		r.at[i].stopPulls()
	}
	clear(r.at)
	clear(r.bitmaps)
	clear(r.delivered)
	r.delivered = r.delivered[:0]
}

// vinst is the merged vertex+block RBC instance state for one position.
type vinst struct {
	live    bool
	vertex  *types.Vertex
	valFrom bool // first VAL processed (vote and the source's echo counted)

	echoSent bool
	// Echo tallies per candidate digest. The first digest seen is tallied
	// in place; only an equivocating proposer produces another, and those
	// go to the map.
	first       echoTally
	firstDigest types.Hash
	hasFirst    bool
	others      map[types.Hash]*echoTally
	// echoVoted tracks which voters' echoes were already counted at this
	// position, across ALL candidate digests. A Byzantine voter gets
	// exactly one echo per position; without this bound it could mint a
	// fresh digest per echo and grow the tallies (each carrying an N-sized
	// aggregator) without limit.
	echoVoted []byte

	certDigest types.Hash
	hasCert    bool
	// certAgg is the certificate's aggregate, kept for peer catch-up (VtxReq):
	// the frozen tally, row memory, or an adopted one. No bitmap: none held (a
	// position recovered from the store). certCopy is what certMsg made of it.
	certAgg  types.AggSig
	certCopy *types.EchoCertMsg

	delivered bool // vertex + cert complete (counts toward round quorum)
	// emitted: this party's execution stage has the vertex, and its block
	// with it — the cache is free to drop it and must not take it back.
	emitted bool
	// lacked: a proposal of this party lists the vertex in its Lacks.
	lacked bool

	// born is the local clock when this instance was first touched; the
	// rbc.latency histogram observes born -> delivered.
	born time.Duration

	blockPull  transport.Timer
	vtxPull    transport.Timer
	pullCursor int
}

// certMsg returns the instance's certificate as a message may carry it — a
// copy on the heap, made for the first pull reply — or nil when it holds none.
func (in *vinst) certMsg(pos types.Position) *types.EchoCertMsg {
	if in.certCopy == nil && in.certAgg.Bitmap != nil {
		in.certCopy = &types.EchoCertMsg{Pos: pos, Digest: in.certDigest, Agg: in.certAgg.Clone()}
	}
	return in.certCopy
}

// stopPulls cancels the instance's pull timers.
func (in *vinst) stopPulls() {
	in.blockPull.Stop()
	in.blockPull = transport.Timer{}
	in.vtxPull.Stop()
	in.vtxPull = transport.Timer{}
}

// echoTally folds echo votes for one candidate digest incrementally: the
// aggregator holds the signer bitmap plus the XOR-folded tag (becoming the
// certificate when the quorum completes), clanVotes counts voters from the
// proposer's block clan.
type echoTally struct {
	agg       crypto.Aggregator
	total     int
	clanVotes int
}

// tally returns the instance's tally for digest, starting it if new.
func (n *Node) tally(in *vinst, digest types.Hash) *echoTally {
	switch {
	case !in.hasFirst:
		in.hasFirst, in.firstDigest = true, digest
		return &in.first
	case in.firstDigest == digest:
		return &in.first
	}
	t := in.others[digest]
	if t == nil {
		t = &echoTally{}
		t.agg.Init(n.cfg.N, types.NewBitmap(n.cfg.N))
		if in.others == nil {
			in.others = map[types.Hash]*echoTally{}
		}
		in.others[digest] = t
	}
	return t
}

func (n *Node) inst(pos types.Position) *vinst {
	row := n.rbc.insts[pos.Round]
	if row == nil {
		if k := len(n.rbc.free); k > 0 {
			row = n.rbc.free[k-1]
			n.rbc.free = n.rbc.free[:k-1]
			row.release() // whatever a stale frame wrote after gc
		} else {
			N := n.cfg.N
			row = &rbcRow{at: make([]vinst, N), bitmaps: make([]byte, 2*N*((N+7)/8)),
				delivered: make([]*types.Vertex, 0, N)}
		}
		n.rbc.insts[pos.Round] = row
	}
	in := &row.at[pos.Source]
	if !in.live {
		bm := (n.cfg.N + 7) / 8
		bits := row.bitmaps[2*bm*int(pos.Source):][:2*bm]
		clear(bits) // an epoch fence may have dropped an earlier instance here
		*in = vinst{live: true, born: n.clk.Now(), echoVoted: bits[:bm:bm]}
		in.first.agg.Init(n.cfg.N, bits[bm:])
	}
	return in
}

// reclaimRows makes the rows retired by earlier handlers reusable.
func (n *Node) reclaimRows() {
	if len(n.rbc.retired) == 0 {
		return
	}
	n.rbc.free = append(n.rbc.free, n.rbc.retired...)
	clear(n.rbc.retired)
	n.rbc.retired = n.rbc.retired[:0]
}

// delivered reports whether pos's merged RBC has completed here.
func (n *Node) delivered(pos types.Position) bool {
	in := n.instIfAny(pos)
	return in != nil && in.delivered
}

// instIfAny returns the instance at pos without creating it.
func (n *Node) instIfAny(pos types.Position) *vinst {
	return n.rbc.insts[pos.Round].get(pos.Source)
}

// deliveredIn returns round r's delivered vertices, in delivery order.
func (n *Node) deliveredIn(r types.Round) []*types.Vertex {
	if row := n.rbc.insts[r]; row != nil {
		return row.delivered
	}
	return nil
}

// gcd reports whether pos is outside the window this party is willing to
// track: below the GC horizon, or so far ahead of its own round that only a
// Byzantine flood could have produced it (honest parties are within one
// network delay of each other after GST).
func (n *Node) gcd(pos types.Position) bool {
	return n.gcdRound(pos.Round)
}

// gcdRound is gcd for round-keyed state (timeouts, no-votes, TCs). Both
// bounds matter for memory safety: without the upper bound a Byzantine
// flood of far-future rounds would grow the per-round maps without limit.
func (n *Node) gcdRound(r types.Round) bool {
	if r < n.dag.MinRound() {
		return true
	}
	return r > n.round+types.Round(4*n.cfg.GCDepth)
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
	if n.gcd(pos) {
		return
	}
	// Validate before allocating instance state: a flood of wrong-epoch or
	// otherwise malformed vertices must not create vinsts (the retransmit
	// machinery re-fetches legitimate vertices once their epoch installs).
	if !n.validateVertex(v, false) {
		return
	}
	in := n.inst(pos)
	if in.valFrom {
		return // only the sender's first proposal counts (non-equivocation)
	}
	d := v.DigestCached()
	if from != n.cfg.Self {
		// The transport's verify pool may have pre-checked the signature
		// (the mark is set only after a successful Reg.Verify over this
		// exact context); verify inline otherwise. A party's own proposal
		// needs no check at all.
		var buf ctxBuf
		if n.cfg.Reg.CheckSigs && !m.PreVerified() && !n.cfg.Reg.Verify(v.Source, vertexCtx(&buf, d), m.Sig) {
			return
		}
		n.clk.Charge(n.cfg.Costs.EdVerify)
	}
	in.valFrom = true
	in.vertex = v

	// The proposal is the implicit vote for the previous round's leader
	// (Sailfish's 1RBC+1delta commit path: votes are observed on the
	// FIRST message of the next round's RBC).
	n.countVote(v)

	// Stash the block if we are entitled to it and it matches.
	if blk != nil {
		n.acceptBlock(v, blk)
	}
	// The VAL is its proposer's ECHO: a proposer holds its own vertex,
	// block and parents by construction, so the signed proposal already
	// says everything a separate echo would. Only this path counts it — a
	// vertex that arrives by pull (onVtxRsp) carries no vote.
	if !in.hasCert {
		n.countEcho(pos, in, v.Source, d)
	}
	n.maybeEcho(pos, in)
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
	in := n.instIfAny(pos)
	if _, ok := n.rbc.blocks[v.BlockDigest]; ok || (in != nil && in.emitted) {
		// Held, or executed and let go: a duplicate VAL, a late BLOCKRSP or
		// a pull reply must not bring an evicted block back.
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
		in.blockPull.Stop()
		in.blockPull = transport.Timer{}
		if in.lacked {
			in.lacked = false
			n.rbc.owed = append(n.rbc.owed, v.Ref())
		}
		n.maybeEcho(pos, in)
	}
	n.drainOut()
}

// inBlockClan reports whether id belongs to the clan that receives the block
// of the vertex at pos, in the epoch of pos's round: the parties entitled to
// that payload.
func (n *Node) inBlockClan(id types.NodeID, pos types.Position) bool {
	clan := n.blockClanAt(pos.Round, pos.Source)
	return clan != types.NoClan && n.epochOf(pos.Round).clanOf[id] == clan
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
	blk, _, err := types.UnmarshalBlock(val)
	if err != nil {
		return nil
	}
	return blk
}

// cacheBlock starts blk's cache entry. Its proposer holds it by construction.
func (n *Node) cacheBlock(d types.Hash, blk *types.Block) {
	bm := (n.cfg.N + 7) / 8
	if len(n.rbc.heldBits) < bm {
		n.rbc.heldBits = make([]byte, n.cfg.N*bm)
	}
	held := n.rbc.heldBits[:bm:bm]
	n.rbc.heldBits = n.rbc.heldBits[bm:]
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
	if in := n.instIfAny(pos); in == nil || !in.emitted {
		return
	}
	clan := n.epochOf(pos.Round).clans[n.blockClanAt(pos.Round, pos.Source)]
	if types.BitmapCount(e.held) < len(clan)-1 {
		return
	}
	n.uncacheBlock(d, e)
	n.mBlocksEvicted.Inc()
}

// noteHeld reads the statement a clan member makes with its vertex v, just
// inserted: it holds the block of every vertex of its clan that v references,
// except at the edges v.Lacks lists. The list is what makes it a statement:
// an edge alone says nothing about payload, since a vertex is delivered, and
// so referenced, without its block (maybeDeliver). Only blocks this party
// caches are tracked, so nothing is recorded outside a block's clan.
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
	if in := n.instIfAny(v.Pos()); in != nil {
		in.emitted = true
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
	in := n.instIfAny(v.Pos())
	return in != nil && in.emitted
}

// maybeEcho sends this party's ECHO once its preconditions hold: the vertex
// is present; every vertex it references has been delivered locally (so a
// certificate can never bind the DAG to a phantom vertex — without this
// check a Byzantine proposer could reference a nonexistent position and
// permanently stall ordering once an honest leader reaches its vertex; the
// paper's implementation performs the same per-parent delivery lookups);
// and, for clan members of the proposer's clan, the block too (Section 5:
// "Members of C send an ECHO message only after receiving both v and b").
// A party never echoes its own position: its VAL is that echo (see onVal).
func (n *Node) maybeEcho(pos types.Position, in *vinst) {
	if in.echoSent || in.vertex == nil || pos.Source == n.cfg.Self {
		return
	}
	if !n.activeAt(pos.Round) {
		return // observers track the DAG but never echo
	}
	v := in.vertex
	if !n.parentsDelivered(pos, v) {
		return // re-tried when the missing parents deliver
	}
	if n.wantsBlock(v) && n.blockFor(v.BlockDigest) == nil {
		return // wait for the block (push or pull)
	}
	in.echoSent = true
	n.queueEcho(pos, v.DigestCached())
}

// echoBlockMin is the least number of entries an echo block is made for.
const echoBlockMin = 64

// queueEcho queues this party's ECHO for digest d at pos. It leaves with the
// rest of the queue in one signed frame when a drain of the endpoint ends
// (endDrain) and the echo hold does not keep it (drainEchoes), ahead of any other frame this party sends (send,
// multicast, broadcast), and at once when the queue holds N entries — the
// most a receiver accepts in one frame.
func (n *Node) queueEcho(pos types.Position, d types.Hash) {
	q := n.rbc.echoQ
	if len(q) == cap(q) {
		q = make([]types.EchoEntry, len(q), max(n.cfg.N, echoBlockMin))
		copy(q, n.rbc.echoQ)
	}
	n.rbc.echoQ = append(q, types.EchoEntry{Pos: pos, Digest: d})
	if len(n.rbc.echoQ) >= n.cfg.N {
		n.flushEchoes()
	}
}

// drainEchoes ends a drain: the queue leaves unless the echo hold keeps it
// (echoHeld), AnchorWait at the longest.
func (n *Node) drainEchoes() {
	switch {
	case !n.echoHeld(n.round):
		n.flushEchoes()
	case n.echoTimer.IsZero():
		n.echoHeldAt = n.clk.Now()
		n.echoTimer = n.clk.After(n.cfg.AnchorWait, n.echoFired)
	}
}

// echoHeld reports whether the queue may wait past a drain end: every entry
// is for the frontier round r ≥ 1 (catch-up is never held), and the round-r
// VAL of a member allAnchorsIn would wait for — one whose round r−1 vertex
// delivered here — has not been processed yet. The round cannot advance
// before its anchors deliver, so an echo sent ahead of the round's last VAL
// only costs a frame, a signature and n−1 verifications.
func (n *Node) echoHeld(r types.Round) bool {
	if len(n.rbc.echoQ) == 0 || r == 0 || n.cfg.AnchorWait < 0 {
		return false
	}
	for _, e := range n.rbc.echoQ {
		if e.Pos.Round != r {
			return false
		}
	}
	cur, prev := n.rbc.insts[r], n.rbc.insts[r-1]
	for _, src := range n.epochOf(r).Members {
		if p := prev.get(src); src != n.cfg.Self && p != nil && p.delivered {
			if v := cur.get(src); v == nil || !v.valFrom {
				return true
			}
		}
	}
	return false
}

// echoTimerFired is the echo timer's one callback (n.echoFired): the hold is
// over, and the queue leaves.
func (n *Node) echoTimerFired() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.stopped && !n.echoTimer.IsZero() {
		n.flushEchoes()
	}
}

// flushEchoes ends the echo hold, if one runs, then signs the queued echoes
// once and broadcasts them as one frame.
func (n *Node) flushEchoes() {
	if !n.echoTimer.IsZero() {
		n.echoTimer.Stop()
		n.echoTimer = transport.Timer{}
		n.mEchoHold.Observe(n.clk.Now() - n.echoHeldAt)
	}
	q := n.rbc.echoQ
	if len(q) == 0 {
		return
	}
	n.rbc.echoQ = q[len(q):]
	if n.stopped {
		return
	}
	m := &types.EchoMsg{Entries: q[:len(q):len(q)], Voter: n.cfg.Self}
	if n.cfg.Key != nil {
		var buf echoFrameBuf
		m.Sig = n.cfg.Reg.SignFor(n.cfg.Key, echoFrameCtx(&buf, m.Entries))
		n.clk.Charge(n.cfg.Costs.EdSign)
	}
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

// ---------------------------------------------------------------------------
// ECHO and certificates.

// parentsDelivered reports whether every vertex referenced by v has been
// delivered locally (or fell below the GC horizon). On failure the child is
// parked in echoWait, keyed by each missing parent, and the missing parents
// are pulled.
func (n *Node) parentsDelivered(pos types.Position, v *types.Vertex) bool {
	ok := true
	check := func(e types.VertexRef) {
		p := e.Pos()
		if p.Round < n.dag.MinRound() {
			return
		}
		pin := n.instIfAny(p)
		if pin != nil && pin.delivered {
			return
		}
		ok = false
		if !n.insts2HasWaiter(p, pos) {
			n.rbc.echoWait[p] = append(n.rbc.echoWait[p], pos)
		}
		if pin == nil {
			pin = n.inst(p)
		}
		if !pin.delivered {
			// Pull the parent regardless of certificate state: the
			// responder ships its certificate along with the vertex,
			// which is what authenticates the pulled data.
			n.maybeStartVtxPull(p, pin)
		}
	}
	for _, e := range v.StrongEdges {
		check(e)
	}
	for _, e := range v.WeakEdges {
		check(e)
	}
	return ok
}

// insts2HasWaiter reports whether child already waits on parent (dedup).
func (n *Node) insts2HasWaiter(parent, child types.Position) bool {
	for _, c := range n.rbc.echoWait[parent] {
		if c == child {
			return true
		}
	}
	return false
}

// echoClan returns the clan whose f_c+1 echo condition applies to pos, or
// NoClan when no payload is attached.
func (n *Node) echoClan(pos types.Position, digest types.Hash, in *vinst) types.ClanID {
	if in.vertex != nil && in.vertex.DigestCached() == digest {
		if in.vertex.BlockDigest.IsZero() {
			return types.NoClan
		}
		return n.blockClanAt(pos.Round, in.vertex.Source)
	}
	// Without the vertex we cannot tell whether a payload is attached;
	// demand the clan condition for the proposer's potential clan,
	// conservatively.
	return n.blockClanAt(pos.Round, pos.Source)
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
		var buf echoFrameBuf
		if n.cfg.Reg.CheckSigs && !m.PreVerified() && !n.cfg.Reg.Verify(m.Voter, echoFrameCtx(&buf, m.Entries), m.Sig) {
			return
		}
		n.clk.Charge(n.cfg.Costs.EdVerify)
	}
	for i := range m.Entries {
		// Checked again: an earlier entry may have taken this voter's one
		// echo at the position, or its delivery moved the window.
		if e := &m.Entries[i]; n.echoCounts(m.Voter, e) {
			n.countEcho(e.Pos, n.inst(e.Pos), m.Voter, e.Digest)
		}
	}
}

// echoCounts reports whether voter's echo e would be tallied now. It creates
// no state: the source is in range and its round inside the window this party
// tracks, voter and source are members of the round's epoch (echoes count
// only from and for those), the position is undecided (late echoes carry no
// information), and the voter has no echo counted there yet — one per voter
// per position across all candidate digests, so a duplicate (an honest
// retransmit) or an equivocating echo for a second digest stops here.
func (n *Node) echoCounts(voter types.NodeID, e *types.EchoEntry) bool {
	if int(e.Pos.Source) >= n.cfg.N || n.gcd(e.Pos) {
		return false
	}
	ep := n.epochOf(e.Pos.Round)
	if !ep.isMember[voter] || !ep.isMember[e.Pos.Source] {
		return false
	}
	in := n.instIfAny(e.Pos)
	return in == nil || !(in.hasCert || types.BitmapHas(in.echoVoted, voter))
}

// countEcho folds voter's echo for digest into pos's tally — an explicit
// ECHO whose signature checked out, or the proposer's VAL standing in for
// its echo — and, when that completes the quorum, assembles and accepts the
// certificate. Each voter counts once per position.
func (n *Node) countEcho(pos types.Position, in *vinst, voter types.NodeID, digest types.Hash) {
	if !in.live || types.BitmapHas(in.echoVoted, voter) {
		return // !live: the caller's own delivery cascade retired the row
	}
	tally := n.tally(in, digest)
	// The partial tag (aggregation input) is computed inline: aggregation
	// is single-threaded, as in the paper.
	var buf ctxBuf
	if err := tally.agg.Add(voter, n.cfg.Reg.PartialFor(voter, echoCtx(&buf, pos, digest))); err != nil {
		return
	}
	types.BitmapSet(in.echoVoted, voter)
	n.clk.Charge(n.cfg.Costs.AggFold)
	tally.total++
	ep := n.epochOf(pos.Round)
	clan := n.echoClan(pos, digest, in)
	if clan != types.NoClan && ep.inClan[clan][voter] {
		tally.clanVotes++
	}

	if tally.total < 2*ep.F+1 {
		return
	}
	if clan != types.NoClan && tally.clanVotes < ep.fcOf[clan]+1 {
		return
	}
	// Quorum: >= f_c+1 clan members hold the block, so a missing payload
	// is now retrievable; acceptCert starts pulling early (before
	// delivery), as the paper prescribes for keeping execution close
	// behind consensus.
	// The echo flood puts every honest node in a position to assemble this
	// exact certificate locally, so nobody announces or relays it: it is
	// kept for the pull path, which ships it with the vertex and so covers
	// whoever missed echoes.
	in.certAgg = tally.agg.Sig() // no echo counts once the certificate is in
	n.acceptCert(pos, in, digest)
}

// validCert structurally verifies an echo certificate against the epoch of
// the certified position's round: only that epoch's members count toward the
// 2f+1 quorum and the f_c+1 clan condition.
func (n *Node) validCert(m *types.EchoCertMsg) bool {
	ep := n.epochOf(m.Pos.Round)
	if !ep.isMember[m.Pos.Source] {
		return false
	}
	// Clan condition: conservatively required whenever the proposer is a
	// block proposer (an empty vertex from a clan member also trivially
	// satisfies it, since the whole quorum plus clan honest majority
	// overlap — checked against the vertex when we have it).
	in := n.instIfAny(m.Pos)
	clan := types.NoClan
	if in != nil && in.vertex != nil && in.vertex.DigestCached() == m.Digest {
		if !in.vertex.BlockDigest.IsZero() {
			clan = n.blockClanAt(m.Pos.Round, in.vertex.Source)
		}
	} else {
		clan = n.blockClanAt(m.Pos.Round, m.Pos.Source)
	}
	// One allocation-free pass checks signer range and counts member and
	// clan votes (non-member partials verify but do not count).
	cnt, clanCnt := 0, 0
	inRange := types.BitmapForEach(m.Agg.Bitmap, func(id types.NodeID) bool {
		if int(id) >= n.cfg.N {
			return false
		}
		if ep.isMember[id] {
			cnt++
		}
		if clan != types.NoClan && ep.inClan[clan][id] {
			clanCnt++
		}
		return true
	})
	if !inRange || cnt < 2*ep.F+1 {
		return false
	}
	if clan != types.NoClan && clanCnt < ep.fcOf[clan]+1 {
		return false
	}
	var buf ctxBuf
	if n.cfg.Reg.CheckSigs && !n.cfg.Reg.VerifyAgg(echoCtx(&buf, m.Pos, m.Digest), m.Agg) {
		return false
	}
	n.clk.Charge(n.cfg.Costs.AggVerify)
	return true
}

// acceptCert finalizes the RBC's digest decision for pos and tries to
// deliver.
func (n *Node) acceptCert(pos types.Position, in *vinst, digest types.Hash) {
	if in.hasCert {
		return
	}
	in.hasCert = true
	in.certDigest = digest
	in.others = nil // the certificate supersedes individual votes
	if in.vertex != nil && in.vertex.DigestCached() != digest {
		// The sender equivocated and the quorum certified the other
		// proposal; ours is garbage. Fetch the certified one.
		in.vertex = nil
	}
	// The certificate proves >= f_c+1 honest clan members hold the block:
	// safe to start pulling if we still need it.
	n.maybeStartBlockPull(pos, in)
	n.maybeDeliver(pos, in)
}

// maybeDeliver completes the merged RBC for pos: vertex present and matching
// the certified digest. Blocks are NOT required — the protocol advances on
// certificates and downloads payloads off the critical path (Section 5).
func (n *Node) maybeDeliver(pos types.Position, in *vinst) {
	if in.delivered || !in.hasCert {
		return
	}
	if in.vertex == nil || in.vertex.DigestCached() != in.certDigest {
		n.maybeStartVtxPull(pos, in)
		return
	}
	in.delivered = true
	in.vtxPull.Stop()
	in.vtxPull = transport.Timer{}
	n.Metrics.VerticesDelivered++
	n.mRBCDelivered.Inc()
	n.mRBCLat.Observe(n.clk.Now() - in.born)
	// Children whose echoes waited on this parent can proceed now.
	if kids := n.rbc.echoWait[pos]; len(kids) > 0 {
		delete(n.rbc.echoWait, pos)
		for _, kid := range kids {
			if kin := n.instIfAny(kid); kin != nil {
				n.maybeEcho(kid, kin)
			}
		}
	}
	v := in.vertex
	row := n.rbc.insts[v.Round]
	row.delivered = append(row.delivered, v)
	if v.Round > n.maxQuorumRound && n.primaryIn(v.Round) &&
		len(row.delivered) >= n.quorum(v.Round) {
		n.maxQuorumRound = v.Round
	}
	n.onDelivered(v)
}

// gcRBC prunes RBC-stage state below the GC horizon: instance rows, parked
// echo waiters, and what is left of the block cache (swept by the round each
// block commits to — acceptBlock guarantees it matches the vertex round, so
// nothing below the horizon survives, including blocks whose instance lost
// its vertex to equivocation replacement).
func (n *Node) gcRBC(horizon types.Round) {
	for r, row := range n.rbc.insts {
		if r >= horizon {
			continue
		}
		row.release()
		n.rbc.retired = append(n.rbc.retired, row)
		delete(n.rbc.insts, r)
	}
	for d, e := range n.rbc.blocks {
		if e.blk.Round < horizon {
			n.uncacheBlock(d, e)
			n.mBlocksExpired.Inc()
		}
	}
	for pos := range n.rbc.echoWait {
		if pos.Round < horizon {
			delete(n.rbc.echoWait, pos)
		}
	}
}

// ---------------------------------------------------------------------------
// Pull paths.

// pullRetry is the re-request interval for a missing block or vertex.
const pullRetry = 200 * time.Millisecond

// maybeStartBlockPull requests the block for pos's vertex if this party
// needs it and lacks it.
func (n *Node) maybeStartBlockPull(pos types.Position, in *vinst) {
	if !in.blockPull.IsZero() || in.vertex == nil {
		return
	}
	if v := in.vertex; !n.wantsBlock(v) || n.holdsBlock(v) {
		return
	}
	n.sendBlockPull(pos, in)
}

func (n *Node) sendBlockPull(pos types.Position, in *vinst) {
	v := in.vertex
	if v == nil {
		in.blockPull = transport.Timer{}
		return
	}
	if n.holdsBlock(v) {
		in.blockPull = transport.Timer{}
		return
	}
	ep := n.epochOf(v.Round)
	if ep.selfClan == types.NoClan {
		in.blockPull = transport.Timer{}
		return
	}
	clan := ep.clans[ep.selfClan]
	// Rotate over clan peers.
	var target types.NodeID = n.cfg.Self
	for i := 0; i < len(clan); i++ {
		cand := clan[in.pullCursor%len(clan)]
		in.pullCursor++
		if cand != n.cfg.Self {
			target = cand
			break
		}
	}
	if target == n.cfg.Self {
		return
	}
	n.send(target, &types.BlockReqMsg{Pos: pos, Digest: v.BlockDigest})
	in.blockPull = n.clk.After(pullRetry, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.stopped || n.instIfAny(pos) != in {
			return // the row was retired (and maybe reused) while this fired
		}
		in.blockPull = transport.Timer{}
		n.sendBlockPull(pos, in)
	})
}

func (n *Node) onBlockReq(from types.NodeID, m *types.BlockReqMsg) {
	// Payload stays inside its clan: only a member of the clan of the
	// position the request names is answered, and only with that position's
	// block.
	if int(m.Pos.Source) >= n.cfg.N || !n.inBlockClan(from, m.Pos) {
		return
	}
	blk := n.blockFor(m.Digest)
	if blk == nil || blk.Round != m.Pos.Round || blk.Source != m.Pos.Source {
		return
	}
	n.clk.Charge(n.cfg.Costs.StoreRead)
	n.send(from, &types.BlockRspMsg{Block: blk})
}

func (n *Node) onBlockRsp(from types.NodeID, m *types.BlockRspMsg) {
	if m.Block == nil {
		return
	}
	pos := types.Position{Round: m.Block.Round, Source: m.Block.Source}
	if n.gcd(pos) {
		return
	}
	in := n.instIfAny(pos)
	if in == nil || in.vertex == nil {
		return
	}
	n.acceptBlock(in.vertex, m.Block)
}

// maybeStartVtxPull fetches a missing (or equivocation-replaced) vertex once
// its certificate is known.
func (n *Node) maybeStartVtxPull(pos types.Position, in *vinst) {
	if !in.vtxPull.IsZero() || in.delivered {
		return
	}
	n.sendVtxPull(pos, in)
}

func (n *Node) sendVtxPull(pos types.Position, in *vinst) {
	if in.delivered {
		in.vtxPull = transport.Timer{}
		return
	}
	// Rotate over the whole tribe (anyone who echoed may hold it).
	var target types.NodeID
	for {
		target = types.NodeID(in.pullCursor % n.cfg.N)
		in.pullCursor++
		if target != n.cfg.Self {
			break
		}
	}
	// Have is the top of what this party holds connected — the DAG admits a
	// vertex only behind its ancestors — so a reply streams ancestors only
	// to a party that lacks them. (The commit frontier, which sits a round
	// or two below the top of a party that is keeping up, made nearly every
	// pull at the frontier drag a batch of vertices, blocks included, that
	// the requester already held.)
	n.send(target, &types.VtxReqMsg{Pos: pos, Have: max(n.lastCommitRound, n.dag.MaxRound())})
	in.vtxPull = n.clk.After(pullRetry, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.stopped || n.instIfAny(pos) != in {
			return // as in sendBlockPull
		}
		in.vtxPull = transport.Timer{}
		n.sendVtxPull(pos, in)
	})
}

func (n *Node) onVtxReq(from types.NodeID, m *types.VtxReqMsg) {
	in := n.instIfAny(m.Pos)
	if in == nil || in.vertex == nil {
		return
	}
	n.sendVtxRsp(from, in)
	// A requester whose connected DAG (Have) ends below the requested
	// round is catching up level-by-level, one RTT per DAG level — too slow
	// to close a large gap while the cluster keeps advancing at full speed
	// (acute under the reputation schedule, which stops stalling on the
	// crashed party's slots). Stream a bounded batch of the vertex's
	// ancestors above the frontier so each round trip covers many levels.
	if m.Have+1 < m.Pos.Round {
		n.sendAncestorBatch(from, in.vertex, m.Have)
	}
}

// sendVtxRsp ships one instance's vertex as a pull response, with its
// certificate — the requester can only accept a pulled vertex that a
// certificate pins — and its block, when the requester's clan entitles it to
// the payload.
func (n *Node) sendVtxRsp(from types.NodeID, in *vinst) {
	v := in.vertex
	rsp := &types.VtxRspMsg{Vertex: v, Cert: in.certMsg(v.Pos())}
	if !v.BlockDigest.IsZero() && n.inBlockClan(from, v.Pos()) {
		if rsp.Block = n.blockFor(v.BlockDigest); rsp.Block != nil {
			n.clk.Charge(n.cfg.Costs.StoreRead)
		}
	}
	n.send(from, rsp)
}

// catchupBatchMax bounds the ancestors streamed alongside one pull reply.
const catchupBatchMax = 64

// sendAncestorBatch walks v's causal history breadth-first (newest rounds
// first, following edge order — deterministic) and streams up to
// catchupBatchMax delivered ancestors above the requester's frontier, each
// certificate-first exactly like a direct pull reply, so the requester
// accepts them through the normal pull path with no extra protocol state.
// Duplicates across overlapping batches are dropped by the receiver's
// delivered check; the bound keeps the overlap cost modest.
func (n *Node) sendAncestorBatch(to types.NodeID, v *types.Vertex, have types.Round) {
	// The walk's set and queue are the node's, cleared here: the handler is
	// serialized, and a pull should cost the frames it sends, no more.
	seen := n.rbc.batchSeen
	clear(seen)
	queue := n.rbc.batchQueue[:0]
	push := func(v *types.Vertex) {
		for i, k := 0, v.NumEdges(); i < k; i++ {
			if p := v.Edge(i).Pos(); p.Round > have && !seen[p] {
				seen[p] = true
				queue = append(queue, p)
			}
		}
	}
	push(v)
	for head, sent := 0, 0; head < len(queue) && sent < catchupBatchMax; head++ {
		pin := n.instIfAny(queue[head])
		if pin == nil || !pin.delivered || pin.vertex == nil {
			continue
		}
		n.sendVtxRsp(to, pin)
		sent++
		push(pin.vertex)
	}
	n.rbc.batchQueue = queue
}

func (n *Node) onVtxRsp(from types.NodeID, m *types.VtxRspMsg) {
	v := m.Vertex
	if v == nil || int(v.Source) >= n.cfg.N {
		return
	}
	pos := v.Pos()
	if n.gcd(pos) {
		return
	}
	in := n.instIfAny(pos)
	// The certificate before the vertex: it is what pins a pulled vertex.
	// A valid one is adopted — kept for this party's own pull replies — and
	// makes the instance if there is none: an ancestor batch ships positions
	// this party has not touched yet.
	if c := m.Cert; c != nil && c.Pos == pos && (in == nil || !in.hasCert) && n.validCert(c) {
		in = n.inst(pos)
		in.certAgg, in.certCopy = c.Agg, c
		n.acceptCert(pos, in, c.Digest)
	}
	if in == nil || in.delivered {
		return
	}
	if in.vertex == nil {
		// Accept only a vertex pinned by the certificate (the cert is
		// the proof of uniqueness; a signature check would be redundant
		// but the structure must still be sound).
		if !in.hasCert || v.DigestCached() != in.certDigest || !n.validateVertex(v, true) {
			return
		}
		in.vertex = v
		n.countVote(v)
	}
	if m.Block != nil {
		n.acceptBlock(in.vertex, m.Block)
	}
	n.maybeDeliver(pos, in)
}
