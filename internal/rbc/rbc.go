// Package rbc is the paper's tribe-assisted reliable broadcast (§4–§5, Fig. 3)
// as a function of messages. From the proposer's VAL, the echoes, a
// certificate pulled with the vertex and its parents' deliveries it decides,
// per DAG position, when this party echoes, what it delivers and what it must
// pull. It reads no clock, sends nothing and holds no timer: internal/core
// frames echoes, caches blocks, runs pulls and acts on what a Table returns.
//
// A vertex is certified by 2f+1 echoes for its digest, f_c+1 of them from the
// proposer's block clan when it carries a block; clan members echo only once
// they hold it, so a certificate proves an honest member can serve it. The
// proposer's first VAL is its echo. An instance holds a vertex only if it
// matches the certificate, if any, and a delivered vertex never changes.
package rbc

import (
	"encoding/binary"
	"slices"

	"clanbft/internal/crypto"
	"clanbft/internal/types"
)

// Epoch is what the rule reads of the epoch owning a round.
type Epoch struct {
	F        int
	IsMember []bool         // by party
	ClanOf   []types.ClanID // by party; a proposer's clan receives its blocks
	Fc       []int          // f_c, by clan
}

// Signers counts bm's signers that are members (a non-member's partial
// verifies but does not count) and those in clan, and reports whether every
// signer is one of the n parties.
func (ep Epoch) Signers(n int, bm []byte, clan types.ClanID) (members, inClan int, inRange bool) {
	inRange = types.BitmapForEach(bm, func(id types.NodeID) bool {
		if int(id) >= n {
			return false
		}
		if ep.IsMember[id] {
			members++
		}
		if clan != types.NoClan && ep.ClanOf[id] == clan {
			inClan++
		}
		return true
	})
	return members, inClan, inRange
}

// Config parameterizes a Table.
type Config struct {
	N       int
	Self    types.NodeID
	Reg     *crypto.Registry          // folds echoes, verifies pulled certificates
	EpochOf func(r types.Round) Epoch // the epoch owning round r
}

// Kind is what an Act asks of the caller.
type Kind uint8

const (
	Echo       Kind = iota // queue this party's echo for V at Pos
	Deliver                // V is delivered at Pos, under the instance's certificate
	NeedVertex             // Pos is certified without its vertex, or an echo waits on it: pull it
)

// Act is one thing an input asks of the caller, in the order it must happen.
type Act struct {
	Kind Kind
	Pos  types.Position
	V    *types.Vertex // Echo and Deliver
}

// CtxLen bounds an echo signing context: a tag, two uvarints and a digest.
const CtxLen = 1 + 2*binary.MaxVarintLen64 + len(types.Hash{})

// AppendEchoCtx appends what a voter signs to echo digest d at pos.
func AppendEchoCtx(b []byte, pos types.Position, d types.Hash) []byte {
	b = append(b, 'E')
	b = types.PutUvarint(b, uint64(pos.Round))
	b = types.PutUvarint(b, uint64(pos.Source))
	return append(b, d[:]...)
}

// Inst is one position's state. X is the caller's per-position state, kept in
// the same row so that it costs no allocation and no lookup of its own.
type Inst[X any] struct {
	X X

	live   bool
	vertex *types.Vertex
	val    bool // the proposer's first VAL is in
	held   bool // this party holds the vertex's block
	echoed bool
	// Echo tallies per candidate digest. The first digest seen is tallied in
	// place; only an equivocating proposer produces another.
	first  tally
	others []*tally
	// voted marks the voters counted here, across all digests: one echo per
	// voter per position, or a Byzantine voter could mint a tally per echo.
	voted []byte

	hasCert    bool
	certDigest types.Hash
	// certAgg is the certificate: the frozen tally, row memory, or an adopted
	// one. No bitmap: a position restored from the store. certCopy is the
	// heap copy CertMsg made of it.
	certAgg   types.AggSig
	certCopy  *types.EchoCertMsg
	delivered bool
}

// tally folds the echoes for digest d: the aggregator holds the signer
// bitmap and the folded tag, clan counts voters from the proposer's block clan.
type tally struct {
	agg  crypto.Aggregator
	d    types.Hash
	clan int
}

// What an instance holds: its vertex (or nil), whether the proposer's VAL
// came, whether this party echoed, whether the position delivered here and
// whether a certificate is in. Cert is the certificate's aggregate, with no
// bitmap when there is none or only the store's word for it.
func (in *Inst[X]) Vertex() *types.Vertex { return in.vertex }
func (in *Inst[X]) HasVal() bool          { return in.val }
func (in *Inst[X]) Echoed() bool          { return in.echoed }
func (in *Inst[X]) Delivered() bool       { return in.delivered }
func (in *Inst[X]) Cert() types.AggSig    { return in.certAgg }

func (in *Inst[X]) counts(voter types.NodeID) bool {
	return !in.hasCert && !types.BitmapHas(in.voted, voter)
}

// Tally returns the signers counted for digest d: nil when none.
func (in *Inst[X]) Tally(d types.Hash) []byte {
	for _, t := range in.tallies() {
		if t.d == d {
			return t.agg.Bitmap()
		}
	}
	return nil
}

// Digests returns how many digests hold echo tallies.
func (in *Inst[X]) Digests() int { return len(in.tallies()) }

func (in *Inst[X]) tallies() []*tally {
	if in.first.agg.Count() == 0 {
		return nil
	}
	return append([]*tally{&in.first}, in.others...)
}

// CertMsg returns the certificate as a message may carry it — a heap copy,
// made for the first pull reply — or nil when the instance holds none.
func (in *Inst[X]) CertMsg(pos types.Position) *types.EchoCertMsg {
	if in.certCopy == nil && in.certAgg.Bitmap != nil {
		in.certCopy = &types.EchoCertMsg{Pos: pos, Digest: in.certDigest, Agg: in.certAgg.Clone()}
	}
	return in.certCopy
}

// tally returns the tally for digest d, starting it if new.
func (in *Inst[X]) tally(n int, d types.Hash) *tally {
	if in.first.agg.Count() == 0 || in.first.d == d {
		in.first.d = d
		return &in.first
	}
	for _, t := range in.others {
		if t.d == d {
			return t
		}
	}
	t := &tally{d: d}
	t.agg.Init(n, types.NewBitmap(n))
	in.others = append(in.others, t)
	return t
}

// Val records the proposer's first VAL. Its echo is the caller's to count
// (Table.Echo); it delivers nothing until Settle.
func (in *Inst[X]) Val(v *types.Vertex) {
	in.val = true
	in.adopt(v)
}

// Pulled takes a vertex that came with a pull if the certificate pins it, and
// reports whether it did.
func (in *Inst[X]) Pulled(v *types.Vertex) bool { return in.hasCert && in.adopt(v) }

// adopt gives the instance v unless it holds a vertex or a certificate for
// another digest.
func (in *Inst[X]) adopt(v *types.Vertex) bool {
	if in.vertex != nil || in.hasCert && v.DigestCached() != in.certDigest {
		return false
	}
	in.vertex = v
	return true
}

// row is one round's instances in one slab: an instance per source and the
// two signer bitmaps each needs (voted, the first tally's). Nothing carved
// from it may be reachable from a message, the DAG or a cache: rows are
// recycled, and a certificate leaves only as CertMsg's copy.
type row[X any] struct {
	at        []Inst[X]
	bitmaps   []byte
	delivered []*types.Vertex // the round's deliveries, in order
}

func (r *row[X]) get(src types.NodeID) *Inst[X] {
	if r == nil || int(src) >= len(r.at) || !r.at[src].live {
		return nil
	}
	return &r.at[src]
}

// Table holds the instances of every tracked round. Each input returns the
// acts it decided, valid until the next input.
type Table[X any] struct {
	cfg  Config
	rows map[types.Round]*row[X]
	// free holds rows GC retired, for reuse. A row retired inside a handler
	// waits in retired until Reclaim: frames up the caller's stack may still
	// hold (and harmlessly touch) one of its instances.
	free, retired []*row[X]
	wait          map[types.Position][]types.Position // parent -> children whose echo waits on it
	min           types.Round                         // the GC horizon: rounds below it count as delivered
	acts          []Act
	release       func(*X) // called on the slot of every instance dropped
}

// New returns an empty table; release, if set, gets each dropped slot.
func New[X any](cfg Config, release func(*X)) *Table[X] {
	return &Table[X]{cfg: cfg, rows: map[types.Round]*row[X]{}, wait: map[types.Position][]types.Position{}, release: release}
}

// Get returns the live instance at pos, or nil.
func (t *Table[X]) Get(pos types.Position) *Inst[X] { return t.rows[pos.Round].get(pos.Source) }

// Inst returns the instance at pos, making it if there is none; fresh
// reports a new one.
func (t *Table[X]) Inst(pos types.Position) (in *Inst[X], fresh bool) {
	r := t.rows[pos.Round]
	if r == nil {
		if k := len(t.free); k > 0 {
			r = t.free[k-1]
			t.free = t.free[:k-1]
			t.clear(r) // whatever a stale frame wrote after GC
		} else {
			n := t.cfg.N
			r = &row[X]{at: make([]Inst[X], n), bitmaps: make([]byte, 2*n*((n+7)/8)),
				delivered: make([]*types.Vertex, 0, n)}
		}
		t.rows[pos.Round] = r
	}
	in = &r.at[pos.Source]
	if in.live {
		return in, false
	}
	bm := (t.cfg.N + 7) / 8
	bits := r.bitmaps[2*bm*int(pos.Source):][:2*bm]
	clear(bits) // an epoch fence may have dropped an earlier instance here
	*in = Inst[X]{live: true, voted: bits[:bm:bm]}
	in.first.agg.Init(t.cfg.N, bits[bm:])
	return in, true
}

// Delivered returns round r's delivered vertices, in delivery order.
func (t *Table[X]) Delivered(r types.Round) []*types.Vertex {
	if row := t.rows[r]; row != nil {
		return row.delivered
	}
	return nil
}

// Rounds returns how many rounds hold instances.
func (t *Table[X]) Rounds() int { return len(t.rows) }

// Range calls fn on every live instance.
func (t *Table[X]) Range(fn func(pos types.Position, in *Inst[X])) {
	for r, row := range t.rows {
		for i := range row.at {
			if row.at[i].live {
				fn(types.Position{Round: r, Source: types.NodeID(i)}, &row.at[i])
			}
		}
	}
}

// Evidenced reports whether something proves a vertex exists at pos: the
// instance holds a vertex, a certificate or an echo tally (the proposer's VAL
// is its echo), or a child's echo waits on it. Every NeedVertex and every
// Deliver has evidence; a pull without it may be for a vertex nobody proposed.
// It does not see a delivered child waiting in the DAG for pos: a child echoes
// nothing here at a non-member, and one that came by pull never echoed at all.
// The caller counts such a child as evidence too (core's pull).
func (t *Table[X]) Evidenced(pos types.Position) bool {
	in := t.Get(pos)
	return in != nil && (in.vertex != nil || in.hasCert || in.first.agg.Count() > 0) || len(t.wait[pos]) > 0
}

// Check runs the echo rule at pos; block, when not zero, is the digest of a
// block this party now holds.
func (t *Table[X]) Check(pos types.Position, block types.Hash) []Act {
	t.acts = t.acts[:0]
	if in := t.Get(pos); in != nil {
		in.held = in.held || in.vertex != nil && !block.IsZero() && in.vertex.BlockDigest == block
		t.check(pos, in)
	}
	return t.acts
}

// Counts reports whether an echo by voter at pos would be counted: voter and
// source are members of the round's epoch, pos is undecided (a late echo
// says nothing) and voter has no echo counted there — one per voter and
// position across all digests, so a retransmit or an equivocating second
// echo stops here. It creates no state.
func (t *Table[X]) Counts(pos types.Position, voter types.NodeID) bool {
	ep := t.cfg.EpochOf(pos.Round)
	in := t.Get(pos)
	return ep.IsMember[voter] && ep.IsMember[pos.Source] && (in == nil || in.counts(voter))
}

// Echo counts voter's echo for digest d at pos: an ECHO entry whose signature
// checked out, or the proposer's VAL standing in for its echo. counted
// reports whether it was folded in.
func (t *Table[X]) Echo(pos types.Position, voter types.NodeID, d types.Hash) (acts []Act, counted bool) {
	t.acts = t.acts[:0]
	in := t.Get(pos)
	if in == nil || !in.counts(voter) {
		return t.acts, false
	}
	tl := in.tally(t.cfg.N, d)
	var buf [CtxLen]byte
	tl.agg.Add(voter, t.cfg.Reg.PartialFor(voter, AppendEchoCtx(buf[:0], pos, d)))
	types.BitmapSet(in.voted, voter)
	ep := t.cfg.EpochOf(pos.Round)
	clan := in.clan(ep, pos, d)
	if clan != types.NoClan && ep.ClanOf[voter] == clan {
		tl.clan++
	}
	if tl.agg.Count() >= 2*ep.F+1 && (clan == types.NoClan || tl.clan > ep.Fc[clan]) {
		in.certAgg = tl.agg.Sig() // no echo counts once the certificate is in
		t.certify(pos, in, d)
	}
	return t.acts, true
}

// Valid reports whether c, which came with a pull, certifies a position this
// table has not certified: 2f+1 member signers, f_c+1 of them from the
// proposer's block clan, and an aggregate that verifies.
func (t *Table[X]) Valid(c *types.EchoCertMsg) bool {
	in := t.Get(c.Pos)
	ep := t.cfg.EpochOf(c.Pos.Round)
	if in != nil && in.hasCert || !ep.IsMember[c.Pos.Source] {
		return false
	}
	clan := in.clan(ep, c.Pos, c.Digest)
	cnt, clanCnt, inRange := ep.Signers(t.cfg.N, c.Agg.Bitmap, clan)
	if !inRange || cnt < 2*ep.F+1 || clan != types.NoClan && clanCnt <= ep.Fc[clan] {
		return false
	}
	var buf [CtxLen]byte
	return t.cfg.Reg.VerifyAgg(AppendEchoCtx(buf[:0], c.Pos, c.Digest), c.Agg)
}

// Adopt takes c, which Valid accepted, as the certificate of its position,
// whose instance exists.
func (t *Table[X]) Adopt(c *types.EchoCertMsg) []Act {
	t.acts = t.acts[:0]
	if in := t.Get(c.Pos); in != nil && !in.hasCert {
		in.certAgg, in.certCopy = c.Agg, c
		t.certify(c.Pos, in, c.Digest)
	}
	return t.acts
}

// Settle delivers pos if it holds its certificate and vertex, and asks for
// the vertex if it holds only the certificate.
func (t *Table[X]) Settle(pos types.Position) []Act {
	t.acts = t.acts[:0]
	if in := t.Get(pos); in != nil {
		t.settle(pos, in)
	}
	return t.acts
}

// Restore marks v delivered, as the store recorded it, and reports whether
// it was not already.
func (t *Table[X]) Restore(v *types.Vertex) bool {
	in, _ := t.Inst(v.Pos())
	if in.delivered {
		return false
	}
	in.vertex, in.val, in.hasCert, in.certDigest, in.delivered = v, true, true, v.DigestCached(), true
	t.rows[v.Round].delivered = append(t.rows[v.Round].delivered, v)
	return true
}

// clan returns the clan whose f_c+1 echoes certify digest d at pos, for the
// instance in (which may be nil): the proposer's block clan, or NoClan when
// in holds the vertex for d and it carries no block. Without that vertex a
// block is assumed.
func (in *Inst[X]) clan(ep Epoch, pos types.Position, d types.Hash) types.ClanID {
	if in != nil && in.vertex != nil && in.vertex.DigestCached() == d && in.vertex.BlockDigest.IsZero() {
		return types.NoClan
	}
	return ep.ClanOf[pos.Source]
}

// wants reports whether this party is to hold v's block.
func (t *Table[X]) wants(ep Epoch, v *types.Vertex) bool {
	clan := ep.ClanOf[v.Source]
	return !v.BlockDigest.IsZero() && clan != types.NoClan && ep.ClanOf[t.cfg.Self] == clan
}

// certify settles the instance's digest. A vertex for another digest goes:
// the proposer equivocated and the quorum certified the other proposal.
func (t *Table[X]) certify(pos types.Position, in *Inst[X], d types.Hash) {
	in.hasCert, in.certDigest = true, d
	in.others = nil
	if in.vertex != nil && in.vertex.DigestCached() != d {
		in.vertex, in.held = nil, false
	}
	t.settle(pos, in)
}

// settle delivers in once it holds its certificate and vertex. Blocks are not
// required: the protocol advances on certificates and fetches payloads off
// the critical path (§5). The children whose echo waited on it are checked
// again before the delivery is reported.
func (t *Table[X]) settle(pos types.Position, in *Inst[X]) {
	if in.delivered || !in.hasCert {
		return
	}
	if in.vertex == nil || in.vertex.DigestCached() != in.certDigest {
		t.acts = append(t.acts, Act{Kind: NeedVertex, Pos: pos})
		return
	}
	in.delivered = true
	r := t.rows[pos.Round]
	r.delivered = append(r.delivered, in.vertex)
	if kids := t.wait[pos]; len(kids) > 0 {
		delete(t.wait, pos)
		for _, kid := range kids {
			if kin := t.Get(kid); kin != nil {
				t.check(kid, kin)
			}
		}
	}
	t.acts = append(t.acts, Act{Kind: Deliver, Pos: pos, V: in.vertex})
}

// check echoes pos once its preconditions hold (§5): this party is a member
// of the round's epoch, the vertex is present, every vertex it references has
// delivered here — so a certificate can never bind the DAG to a phantom
// parent — and, for a member of the proposer's block clan, the block too.
func (t *Table[X]) check(pos types.Position, in *Inst[X]) {
	if in.echoed || in.vertex == nil || pos.Source == t.cfg.Self {
		return
	}
	ep := t.cfg.EpochOf(pos.Round)
	if !ep.IsMember[t.cfg.Self] || !t.parentsDelivered(pos, in.vertex) || !in.held && t.wants(ep, in.vertex) {
		return
	}
	in.echoed = true
	t.acts = append(t.acts, Act{Kind: Echo, Pos: pos, V: in.vertex})
}

// parentsDelivered reports whether every vertex v references has delivered
// (or fell below the horizon). Each one missing gets pos parked on it and is
// asked for: the responder ships its certificate with it.
func (t *Table[X]) parentsDelivered(pos types.Position, v *types.Vertex) bool {
	ok := true
	for i, k := 0, v.NumEdges(); i < k; i++ {
		p := v.Edge(i).Pos()
		if p.Round < t.min {
			continue
		}
		if pin := t.Get(p); pin != nil && pin.delivered {
			continue
		}
		ok = false
		if !slices.Contains(t.wait[p], pos) {
			t.wait[p] = append(t.wait[p], pos)
		}
		t.acts = append(t.acts, Act{Kind: NeedVertex, Pos: p})
	}
	return ok
}

// GC drops every round below horizon.
func (t *Table[X]) GC(horizon types.Round) {
	t.min = max(t.min, horizon)
	for r, row := range t.rows {
		if r < horizon {
			t.clear(row)
			t.retired = append(t.retired, row)
			delete(t.rows, r)
		}
	}
	for pos := range t.wait {
		if pos.Round < horizon {
			delete(t.wait, pos)
		}
	}
}

// Fence drops, at every round from start on, the instances and deliveries of
// sources outside the round's epoch: those of an epoch installing at start.
func (t *Table[X]) Fence(start types.Round) {
	for r, row := range t.rows {
		if r < start {
			continue
		}
		ep := t.cfg.EpochOf(r)
		for src := range row.at {
			if in := &row.at[src]; in.live && !ep.IsMember[src] {
				t.drop(in)
			}
		}
		row.delivered = slices.DeleteFunc(row.delivered, func(v *types.Vertex) bool { return !ep.IsMember[v.Source] })
	}
}

// Reclaim makes the rows retired since the last call reusable.
func (t *Table[X]) Reclaim() {
	t.free = append(t.free, t.retired...)
	clear(t.retired)
	t.retired = t.retired[:0]
}

// clear zeroes a row, dropping every pointer it held.
func (t *Table[X]) clear(r *row[X]) {
	for i := range r.at {
		t.drop(&r.at[i])
	}
	clear(r.bitmaps)
	clear(r.delivered)
	r.delivered = r.delivered[:0]
}

func (t *Table[X]) drop(in *Inst[X]) {
	if t.release != nil {
		t.release(&in.X)
	}
	*in = Inst[X]{}
}
