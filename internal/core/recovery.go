package core

import (
	"bytes"
	"sort"

	"clanbft/internal/store"
	"clanbft/internal/types"
)

// Crash recovery. A node with a persistent store writes three key families:
//
//	p/<round>   its own proposal digest, written BEFORE the proposal is sent
//	            (so a recovered node never equivocates on a round it already
//	            proposed in);
//	v/<pos>     every vertex whose merged RBC delivered locally;
//	b/<digest>  every block payload this party stored.
//
// Recover rebuilds the DAG and round state from those records; blocks stay in
// the store, where blockFor finds them when the replay or a peer asks.
// Ordering state (the last ordered leader) is intentionally NOT persisted:
// after recovery the engine re-derives commits from the DAG, so the Deliver
// callback re-emits previously delivered vertices — at-least-once delivery
// across restarts. Applications that need exactly-once semantics dedupe on
// (round, source), which is how the execution layer's deterministic state
// machine naturally behaves when replayed from the start.

// proposalKey is the p/<round> key.
func proposalKey(r types.Round) []byte {
	var key [2 + 8]byte
	key[0], key[1] = 'p', '/'
	for i := 0; i < 8; i++ {
		key[2+i] = byte(r >> (8 * (7 - i)))
	}
	return key[:]
}

// blockKey is the b/<digest> key.
func blockKey(d types.Hash) []byte {
	return append([]byte("b/"), d[:]...)
}

// putOwned persists one freshly built key/value pair through the node's
// scratch batch. Ownership of both buffers transfers to the store
// (store.Batch.PutOwned), so the hot persistence path performs no defensive
// copies. Requires cfg.Store != nil.
func (n *Node) putOwned(key, value []byte) {
	n.wb.Reset()
	n.wb.PutOwned(key, value)
	n.cfg.Store.Apply(&n.wb)
	n.wb.Reset()
}

// recover loads persisted state. Called from Start when a store is present.
// It returns whether any prior state existed.
func (n *Node) recoverFromStore() bool {
	st := n.cfg.Store
	if st == nil {
		return false
	}
	// drainCommits fires mid-replay (countVote re-derives commits); the
	// recovering flag keeps it from advancing rounds before the proposal
	// highwater is restored.
	n.recovering = true
	defer func() { n.recovering = false }()

	// Epoch table first: the v/ replay below resolves leaders and quorums
	// through it. e/<num> records are installed in epoch order (Scan order
	// is not guaranteed); the ones a later drainCommits replay re-derives
	// are deduplicated by their scheduling commit round.
	type epochRec struct {
		num   uint64
		value []byte
	}
	var recs []epochRec
	st.Scan([]byte("e/"), func(key, value []byte) bool {
		if len(key) != 10 {
			return true
		}
		var num uint64
		for i := 0; i < 8; i++ {
			num = num<<8 | uint64(key[2+i])
		}
		recs = append(recs, epochRec{num, append([]byte(nil), value...)})
		return true
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].num < recs[j].num })
	for _, rec := range recs {
		if rec.num != n.epochHead().num+1 {
			continue // epoch 0 comes from the config; gaps cannot install
		}
		start, sched, members, joins, ok := unmarshalEpochRecord(rec.value)
		if !ok {
			continue
		}
		es := n.newEpochState(rec.num, start, sched, members)
		es.joins = joins
		n.installEpoch(es, false)
	}

	// Own-proposal highwater mark.
	var highwater types.Round
	proposed := false
	st.Scan([]byte("p/"), func(key, value []byte) bool {
		if len(key) != 10 {
			return true
		}
		var r types.Round
		for i := 0; i < 8; i++ {
			r = r<<8 | types.Round(key[2+i])
		}
		if !proposed || r > highwater {
			highwater = r
		}
		proposed = true
		return true
	})

	// Vertices, inserted parents-first (ascending round).
	var verts []*types.Vertex
	st.Scan([]byte("v/"), func(key, value []byte) bool {
		v, _, err := types.UnmarshalVertex(value)
		if err != nil {
			return true
		}
		verts = append(verts, v)
		return true
	})
	sort.Slice(verts, func(i, j int) bool {
		if verts[i].Round != verts[j].Round {
			return verts[i].Round < verts[j].Round
		}
		return verts[i].Source < verts[j].Source
	})
	for _, v := range verts {
		pos := v.Pos()
		in := n.inst(pos)
		if in.delivered {
			continue
		}
		in.vertex = v
		in.valFrom = true
		in.hasCert = true // persisted only after RBC delivery
		in.certDigest = v.DigestCached()
		in.delivered = true
		row := n.rbc.insts[v.Round]
		row.delivered = append(row.delivered, v)
		n.dag.Insert(v)
		// Votes re-derived from recovered proposals keep the commit rule
		// working across the restart boundary.
		n.countVote(v)
	}

	if proposed && highwater >= n.round {
		n.round = highwater
	}
	// Commit checks ran against a partially rebuilt DAG (countVote fires
	// as vertices are replayed) and may have parked ancestors in
	// commitWait; those inserts bypassed insertNow, so reset the wait set
	// and let Start's drainCommits re-derive it against the full DAG.
	clear(n.ord.commitWait)
	return proposed || len(verts) > 0 || len(n.epochs) > 1
}

// onSnapReq serves a snapshot of this party's store to a bootstrapping peer
// (a joiner admitted by a committed ReconfigTx, or any party catching up).
// The donor's own proposal records (p/) are excluded — they would corrupt the
// requester's equivocation highwater — so the stream restores into a state
// any party can recover from: epochs, vertices, and blocks.
func (n *Node) onSnapReq(from types.NodeID, _ *types.SnapReqMsg) {
	d, ok := n.cfg.Store.(*store.Disk)
	if !ok {
		return
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf, "p/"); err != nil {
		return
	}
	n.clk.Charge(n.cfg.Costs.StoreRead)
	n.send(from, &types.SnapRspMsg{Data: buf.Bytes()})
}

// persistProposal records this party's round-r proposal digest before the
// proposal leaves the node (write-ahead against equivocation). Anything the
// caller staged in n.wb beforehand (the proposal's block, see propose) lands
// in the same atomic batch: one WAL record, one group-commit fsync, and a
// recovered node that finds p/<r> also finds the block it committed to.
func (n *Node) persistProposal(r types.Round, digest types.Hash) {
	if n.cfg.Store == nil {
		return
	}
	d := digest // the batch's, from here: without a store nothing escapes
	n.wb.PutOwned(proposalKey(r), d[:])
	n.cfg.Store.Apply(&n.wb)
	n.wb.Reset()
	n.clk.Charge(n.cfg.Costs.StoreWrite)
}
