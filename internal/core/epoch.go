package core

import (
	"sort"

	"clanbft/internal/committee"
	"clanbft/internal/crypto"
	"clanbft/internal/order"
	"clanbft/internal/types"
)

// Epoch reconfiguration. Membership changes ride the total order: a signed
// ReconfigTx travels inside a vertex (vertices replicate tribe-wide, so every
// party — including non-member observers tracking the DAG — sees it at the
// same point of the commit sequence). When the leader commit at round L
// orders one or more valid reconfig transactions, every party deterministically
// schedules an epoch fence at round
//
//	StartRound = L + ReconfigDelay + 1
//
// and re-runs the clan sampler over the new member set, seeded by the epoch
// number. Rounds stay globally monotonic across epochs; an epoch simply owns
// a contiguous round segment, and every quorum rule evaluates against the
// epoch of the round where the counted vertices live.
//
// Safety depends on the propose throttle in tryAdvance: a party never
// proposes round r unless r <= lastCommitRound + ReconfigDelay. Leader
// commits form a single chain, so any party proposing at or past a fence has
// necessarily processed the commit that scheduled it — no honest party can
// extend the DAG past a fence under the old epoch's rules.

// epochState is the membership and clan topology for one epoch's round
// segment. All derived arrays are sized to the universe (cfg.N).
type epochState struct {
	// Epoch is what the commit rule reads: number, first round, members
	// (ascending) and f = (len(Members)-1)/3.
	order.Epoch
	// schedRound is the leader-commit round that scheduled this epoch
	// (meaningful for Num > 0). It dedupes re-scheduling during recovery
	// replay: the same commit deterministically maps to the same epoch.
	schedRound types.Round
	isMember   []bool // universe-indexed

	clanOf   []types.ClanID
	clans    [][]types.NodeID
	fcOf     []int
	selfClan types.ClanID
	// joins records the dial addresses of members that joined at this
	// fence, for the OnReconfig callback and the persisted epoch record.
	joins map[types.NodeID]string
}

// epochOf returns the epoch owning round r (the last fence at or below r).
func (n *Node) epochOf(r types.Round) *epochState {
	for i := len(n.epochs) - 1; i > 0; i-- {
		if r >= n.epochs[i].Start {
			return n.epochs[i]
		}
	}
	return n.epochs[0]
}

// epochHead returns the latest scheduled epoch (its fence may be ahead of
// the current round).
func (n *Node) epochHead() *epochState { return n.epochs[len(n.epochs)-1] }

// quorum returns the 2f+1 threshold for artifacts counted at round r.
func (n *Node) quorum(r types.Round) int { return 2*n.epochOf(r).F + 1 }

// activeAt reports whether this party is a member during round r. Non-members
// run as observers: they track the DAG, deliver and order vertices, but never
// propose, echo, or sign view-change artifacts.
func (n *Node) activeAt(r types.Round) bool {
	return n.epochOf(r).isMember[n.cfg.Self]
}

// newEpochState derives the full topology for a post-genesis epoch: the clan
// sampler re-runs over the new member set with epoch 0's clan size and count,
// seeded by the epoch number, so every party lands on identical clans without
// exchanging a single extra message.
func (n *Node) newEpochState(num uint64, start, sched types.Round, members []types.NodeID) *epochState {
	g := n.epochs[0].clans
	clans := SampleClans(n.cfg.Mode, members, len(g[0]), len(g), int64(num), nil)
	return n.buildEpochState(num, start, sched, members, clans)
}

// buildEpochState fills the derived membership/clan arrays. Nil clans make
// the member set the one clan (ModeBaseline).
func (n *Node) buildEpochState(num uint64, start, sched types.Round, members []types.NodeID, clans [][]types.NodeID) *epochState {
	if clans == nil {
		clans = [][]types.NodeID{members}
	}
	es := &epochState{
		Epoch:      order.Epoch{Num: num, Start: start, Members: members, F: committee.MaxFaulty(len(members))},
		schedRound: sched,
		isMember:   make([]bool, n.cfg.N),
		clanOf:     make([]types.ClanID, n.cfg.N),
		clans:      clans,
		selfClan:   types.NoClan,
	}
	for i := range es.clanOf {
		es.clanOf[i] = types.NoClan
	}
	for _, id := range members {
		es.isMember[id] = true
	}
	for ci, clan := range clans {
		for _, id := range clan {
			es.clanOf[id] = types.ClanID(ci)
			if id == n.cfg.Self {
				es.selfClan = types.ClanID(ci)
			}
		}
		es.fcOf = append(es.fcOf, committee.ClanMaxFaulty(len(clan)))
	}
	return es
}

// ---------------------------------------------------------------------------
// Reconfig transactions.

// reconfigCtx is the signing domain for membership transactions.
func reconfigCtx(tx *types.ReconfigTx) []byte {
	return tx.SigningBytes([]byte{'R'})
}

// SignReconfig signs a membership transaction with the affected node's key,
// first setting tx.PubKey to that key's public half. The signature binds the
// action, node, address, and public key.
func SignReconfig(reg *crypto.Registry, key *crypto.KeyPair, tx *types.ReconfigTx) {
	copy(tx.PubKey[:], key.Pub)
	tx.Sig = reg.SignFor(key, reconfigCtx(tx))
}

// validReconfigTx checks a committed membership transaction against the base
// epoch it would amend. Invalid transactions are skipped deterministically —
// every party evaluates the same ordered sequence against the same base.
func (n *Node) validReconfigTx(tx *types.ReconfigTx, base *epochState, members []types.NodeID) bool {
	if int(tx.Node) >= n.cfg.N {
		return false
	}
	idx := sort.Search(len(members), func(i int) bool { return members[i] >= tx.Node })
	present := idx < len(members) && members[idx] == tx.Node
	switch tx.Action {
	case types.ReconfigJoin:
		if present || tx.Addr == "" || len(tx.Addr) > types.MaxReconfigAddr {
			return false
		}
	case types.ReconfigLeave:
		// Keep at least four members (f >= 1) so the protocol stays BFT.
		if !present || len(members) <= 4 {
			return false
		}
	default:
		return false
	}
	if !n.cfg.Reg.Verify(tx.Node, reconfigCtx(tx), tx.Sig) {
		return false
	}
	n.clk.Charge(n.cfg.Costs.EdVerify)
	return true
}

// SubmitReconfig queues a signed membership transaction for inclusion in this
// party's next proposal. Safe from any goroutine.
func (n *Node) SubmitReconfig(tx types.ReconfigTx) { n.step(input{kind: inReconfig, tx: &tx}) }

// ---------------------------------------------------------------------------
// Scheduling and installing epochs.

// scheduleEpoch runs when the leader commit at commitRound has ordered
// reconfig transactions. Every party processes the identical ordered sequence
// at the identical commit, so the resulting epoch (fence round, member set,
// clan assignment) is identical everywhere without extra agreement.
func (n *Node) scheduleEpoch(commitRound types.Round, txs []types.ReconfigTx) {
	for _, e := range n.epochs {
		if e.Num > 0 && e.schedRound == commitRound {
			return // recovery replay: this commit already scheduled its epoch
		}
	}
	head := n.epochHead()
	members := append([]types.NodeID(nil), head.Members...)
	joins := map[types.NodeID]string{}
	changed := false
	for i := range txs {
		tx := &txs[i]
		if !n.validReconfigTx(tx, head, members) {
			continue
		}
		switch tx.Action {
		case types.ReconfigJoin:
			members = append(members, tx.Node)
			sortNodeIDs(members)
			joins[tx.Node] = tx.Addr
			changed = true
		case types.ReconfigLeave:
			idx := sort.Search(len(members), func(i int) bool { return members[i] >= tx.Node })
			members = append(members[:idx], members[idx+1:]...)
			delete(joins, tx.Node)
			changed = true
		}
	}
	if !changed {
		return
	}
	start := commitRound + n.cfg.ReconfigDelay + 1
	if start <= head.Start {
		start = head.Start + 1
	}
	es := n.newEpochState(head.Num+1, start, commitRound, members)
	es.joins = joins
	n.installEpoch(es, true)
}

func sortNodeIDs(ids []types.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// installEpoch appends es to the epoch table, persists it (when freshly
// scheduled rather than recovered), drains in-flight state past the fence
// that the new epoch invalidates, and notifies the embedding layer.
func (n *Node) installEpoch(es *epochState, persist bool) {
	n.epochs = append(n.epochs, es)
	if persist && n.cfg.Store != nil {
		n.putOwned(epochKey(es.Num), marshalEpochRecord(es))
	}
	// Drain in-flight view state at or past the fence that was built under
	// the old epoch's rules: RBC instances sourced by non-members, delivered
	// counts including them, and timeout/no-vote aggregates and certificates
	// whose quorum threshold just changed. A round's timed-out mark stays, so
	// Metrics.Timeouts still counts the round once.
	n.rbc.Fence(es.Start)
	n.recountVotes(es.Start)
	for r, v := range n.views {
		if r >= es.Start {
			*v = view{timedOut: v.timedOut}
		}
	}

	if n.cfg.OnReconfig != nil {
		n.cfg.OnReconfig(n.epochInfo(es))
	}
}

// gcEpochs trims epoch-table entries fully below the GC horizon. The entry
// covering the horizon always survives, so epochOf stays correct for every
// retained round; the table is therefore bounded by the number of fences
// inside the retention window, independent of run length.
func (n *Node) gcEpochs(horizon types.Round) {
	for len(n.epochs) > 1 && n.epochs[1].Start <= horizon {
		n.epochs = n.epochs[1:]
	}
}

// ---------------------------------------------------------------------------
// Persistence.

// epochKey is the e/<num> store key (big-endian for ordered scans).
func epochKey(num uint64) []byte {
	var key [2 + 8]byte
	key[0], key[1] = 'e', '/'
	for i := 0; i < 8; i++ {
		key[2+i] = byte(num >> (8 * (7 - i)))
	}
	return key[:]
}

// marshalEpochRecord encodes the epoch's fence, scheduling commit, member
// set, and join addresses. Clans are NOT stored: they re-derive from
// (mode, members, epoch number) on any replica.
func marshalEpochRecord(es *epochState) []byte {
	b := types.PutUvarint(nil, uint64(es.Start))
	b = types.PutUvarint(b, uint64(es.schedRound))
	b = types.PutUvarint(b, uint64(len(es.Members)))
	for _, id := range es.Members {
		b = types.PutUvarint(b, uint64(id))
	}
	b = types.PutUvarint(b, uint64(len(es.joins)))
	ids := make([]types.NodeID, 0, len(es.joins))
	for id := range es.joins {
		ids = append(ids, id)
	}
	sortNodeIDs(ids)
	for _, id := range ids {
		b = types.PutUvarint(b, uint64(id))
		addr := es.joins[id]
		b = types.PutUvarint(b, uint64(len(addr)))
		b = append(b, addr...)
	}
	return b
}

// unmarshalEpochRecord decodes marshalEpochRecord's output. A record reaches
// a joiner inside a donor's snapshot, so its counts are bounded by its bytes.
func unmarshalEpochRecord(b []byte) (start, sched types.Round, members []types.NodeID, joins map[types.NodeID]string, ok bool) {
	r := types.NewReader(b)
	start, sched = types.Round(r.Uvarint()), types.Round(r.Uvarint())
	members = make([]types.NodeID, r.Count(1))
	for i := range members {
		members[i] = r.Node()
	}
	joins = map[types.NodeID]string{}
	for range r.Count(2) {
		id := r.Node()
		joins[id] = string(r.Bytes(r.Count(1)))
	}
	return start, sched, members, joins, r.End() == nil
}

// ---------------------------------------------------------------------------
// Introspection.

// EpochInfo is the externally visible description of one epoch.
type EpochInfo struct {
	Epoch      uint64
	StartRound types.Round
	Members    []types.NodeID
	Clans      [][]types.NodeID
	// Joins maps members that joined at this epoch's fence to the dial
	// address their ReconfigTx advertised (transports add them as peers).
	Joins map[types.NodeID]string
}

func (n *Node) epochInfo(es *epochState) EpochInfo {
	info := EpochInfo{
		Epoch:      es.Num,
		StartRound: es.Start,
		Members:    append([]types.NodeID(nil), es.Members...),
	}
	for _, clan := range es.clans {
		info.Clans = append(info.Clans, append([]types.NodeID(nil), clan...))
	}
	if len(es.joins) > 0 {
		info.Joins = map[types.NodeID]string{}
		for id, addr := range es.joins {
			info.Joins[id] = addr
		}
	}
	return info
}

// EpochTable returns the currently retained epochs, oldest first.
func (n *Node) EpochTable() []EpochInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]EpochInfo, 0, len(n.epochs))
	for _, es := range n.epochs {
		out = append(out, n.epochInfo(es))
	}
	return out
}

// CurrentEpoch returns the epoch governing this party's current round.
func (n *Node) CurrentEpoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epochOf(n.round).Num
}
