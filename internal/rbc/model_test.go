package rbc

import (
	"fmt"
	"math/rand"
	"testing"

	"clanbft/internal/committee"
	"clanbft/internal/crypto"
	"clanbft/internal/types"
)

// The model: n parties, one clan, two positions. P, at round 0, comes from an
// honest clan member; C, at round 1 with an edge to P, from the
// configuration's proposer, so an echo for C waits on P's delivery. Honest
// parties run a Table each and feed it as internal/core does; Byzantine ones
// only send what the seed draws for them. Each message is delivered once, in
// a seeded random order; honest echoes and pull replies join the pool as
// they are made. A pull reply — vertex, certificate, and the block when the
// recipient is in the clan and the holder has it — goes from every honest
// party that delivers to every other party.

type mkind uint8

const (
	mVal mkind = iota
	mEcho
	mReply
)

type msg struct {
	kind     mkind
	from, to types.NodeID
	v        *types.Vertex      // VAL, reply
	block    bool               // VAL, reply: carries v's block
	pos      types.Position     // echo
	d        types.Hash         // echo
	cert     *types.EchoCertMsg // reply
}

type party struct {
	tab       *Table[struct{}]
	blocks    map[types.Hash]bool
	delivered map[types.Position]*types.Vertex
}

type model struct {
	n    int
	clan map[types.NodeID]bool
	ps   []*party // nil: Byzantine
	pool []msg
	bad  []string // what an act broke as it was made
}

type modelConfig struct {
	name       string
	n          int
	clan       []types.NodeID
	pSrc, cSrc types.NodeID // proposers of P and C
	byz        []types.NodeID
}

func (c modelConfig) isByz(id types.NodeID) bool {
	for _, b := range c.byz {
		if b == id {
			return true
		}
	}
	return false
}

// run plays one schedule and returns the properties it broke, and whether
// C delivered.
func (c modelConfig) run(reg *crypto.Registry, seed int64) ([]string, bool) {
	rng := rand.New(rand.NewSource(seed))
	m := &model{n: c.n, clan: map[types.NodeID]bool{}, ps: make([]*party, c.n)}
	ep := Epoch{F: committee.MaxFaulty(c.n), IsMember: make([]bool, c.n), ClanOf: make([]types.ClanID, c.n),
		Fc: []int{committee.ClanMaxFaulty(len(c.clan))}}
	for i := range ep.ClanOf {
		ep.IsMember[i], ep.ClanOf[i] = true, types.NoClan
	}
	for _, id := range c.clan {
		m.clan[id], ep.ClanOf[id] = true, 0
	}
	for i := range m.ps {
		if !c.isByz(types.NodeID(i)) {
			cfg := Config{N: c.n, Self: types.NodeID(i), Reg: reg, EpochOf: func(types.Round) Epoch { return ep }}
			m.ps[i] = &party{tab: New[struct{}](cfg, nil), blocks: map[types.Hash]bool{}, delivered: map[types.Position]*types.Vertex{}}
		}
	}
	vp := &types.Vertex{Round: 0, Source: c.pSrc, BlockDigest: types.HashBytes([]byte("p"))}
	va := &types.Vertex{Round: 1, Source: c.cSrc, StrongEdges: []types.VertexRef{vp.Ref()}, BlockDigest: types.HashBytes([]byte("a"))}
	vb := &types.Vertex{Round: 1, Source: c.cSrc, StrongEdges: []types.VertexRef{vp.Ref()}, BlockDigest: types.HashBytes([]byte("b")), CreatedAt: 1}
	pick := func() *types.Vertex { return []*types.Vertex{nil, va, va, vb, vb}[rng.Intn(5)] }
	send := func(mm msg) { m.pool = append(m.pool, mm) }
	for i := 0; i < c.n; i++ {
		to := types.NodeID(i)
		send(msg{kind: mVal, from: c.pSrc, to: to, v: vp, block: m.clan[to]})
		if !c.isByz(c.cSrc) {
			send(msg{kind: mVal, from: c.cSrc, to: to, v: va, block: m.clan[to]})
		}
		if m.ps[i] == nil {
			continue
		}
		for _, b := range c.byz {
			if b == c.cSrc {
				// VALs with and without the block, perhaps a second (late)
				// one, and an echo of its own position.
				for k := 0; k < 1+rng.Intn(2); k++ {
					if v := pick(); v != nil {
						send(msg{kind: mVal, from: b, to: to, v: v, block: rng.Intn(4) != 0})
					}
				}
			}
			if v := pick(); v != nil {
				send(msg{kind: mEcho, from: b, to: to, pos: v.Pos(), d: v.DigestCached()})
			}
			if rng.Intn(2) == 0 {
				send(msg{kind: mEcho, from: b, to: to, pos: vp.Pos(), d: vp.DigestCached()})
			}
		}
	}
	for len(m.pool) > 0 {
		k := rng.Intn(len(m.pool))
		mm := m.pool[k]
		m.pool[k] = m.pool[len(m.pool)-1]
		m.pool = m.pool[:len(m.pool)-1]
		m.deliver(mm)
	}
	return c.check(m, vp.Pos(), va.Pos()), m.ps[c.pSrc].delivered[va.Pos()] != nil
}

// deliver hands one message to its recipient's table as core would.
func (m *model) deliver(mm msg) {
	p := m.ps[mm.to]
	if p == nil {
		return
	}
	t := p.tab
	switch mm.kind {
	case mVal:
		pos := mm.v.Pos()
		in, _ := t.Inst(pos)
		if in.HasVal() {
			return
		}
		in.Val(mm.v)
		if mm.block && m.clan[mm.to] {
			p.blocks[mm.v.BlockDigest] = true
			m.act(mm.to, t.Check(pos, mm.v.BlockDigest))
		}
		acts, _ := t.Echo(pos, mm.v.Source, mm.v.DigestCached())
		m.act(mm.to, acts)
		m.act(mm.to, t.Check(pos, types.Hash{}))
	case mEcho:
		if t.Counts(mm.pos, mm.from) {
			t.Inst(mm.pos)
			acts, _ := t.Echo(mm.pos, mm.from, mm.d)
			m.act(mm.to, acts)
		}
	case mReply:
		pos := mm.v.Pos()
		if t.Valid(mm.cert) {
			t.Inst(pos)
			m.act(mm.to, t.Adopt(mm.cert))
		}
		in := t.Get(pos)
		if in == nil || in.Delivered() || in.Vertex() == nil && !in.Pulled(mm.v) {
			return
		}
		if d := in.Vertex().BlockDigest; mm.block && m.clan[mm.to] && d == mm.v.BlockDigest {
			p.blocks[d] = true
			m.act(mm.to, t.Check(pos, d))
		}
		m.act(mm.to, t.Settle(pos))
	}
}

// act carries out id's acts: an echo goes to everyone, a delivery makes the
// pull replies. The pulls themselves are those replies; each must have
// evidence, or core would not retry it.
func (m *model) act(id types.NodeID, acts []Act) {
	p := m.ps[id]
	for _, a := range acts {
		switch a.Kind {
		case NeedVertex:
			if !p.tab.Evidenced(a.Pos) {
				m.bad = append(m.bad, fmt.Sprintf("pull without evidence at %v", a.Pos))
			}
		case Echo:
			for to := 0; to < m.n; to++ {
				m.pool = append(m.pool, msg{kind: mEcho, from: id, to: types.NodeID(to), pos: a.Pos, d: a.V.DigestCached()})
			}
		case Deliver:
			p.delivered[a.Pos] = a.V
			cert := p.tab.Get(a.Pos).CertMsg(a.Pos)
			for to := 0; to < m.n; to++ {
				if to := types.NodeID(to); to != id {
					m.pool = append(m.pool, msg{kind: mReply, from: id, to: to, v: a.V, cert: cert,
						block: m.clan[to] && p.blocks[a.V.BlockDigest]})
				}
			}
		}
	}
}

// check returns the properties the finished schedule broke, at P and C.
func (c modelConfig) check(m *model, positions ...types.Position) []string {
	bad := m.bad
	for _, pos := range positions {
		var got *types.Vertex
		some, all := false, true
		for _, p := range m.ps {
			if p == nil {
				continue
			}
			v := p.delivered[pos]
			some, all = some || v != nil, all && v != nil
			if v == nil {
				continue
			}
			if got != nil && got.DigestCached() != v.DigestCached() {
				bad = append(bad, fmt.Sprintf("agreement at %v", pos))
			}
			got = v
			held := false
			for id := range m.clan {
				held = held || m.ps[id] != nil && m.ps[id].blocks[v.BlockDigest]
			}
			if !held {
				bad = append(bad, fmt.Sprintf("clan availability at %v", pos))
			}
		}
		if some && !all || !all && !c.isByz(pos.Source) {
			bad = append(bad, fmt.Sprintf("totality at %v", pos))
		}
	}
	return bad
}

// TestModelTribeRBC samples delivery orders and Byzantine choices at n = 4
// with an equivocating proposer or voter, and at n = 7 with a clan of 3
// whose Byzantine member proposes while a voter outside the clan lies too.
// At n = 7 only a clan of 3 lets the f_c+1 condition show: the four non-clan
// echoes (one Byzantine) and the proposer's VAL make 2f+1 = 5 with no honest
// clan member holding the block. With a clan of 4, three non-clan echoes and
// f_c Byzantine clan ones fall short of 5; a clan of 2 has f_c = 0.
func TestModelTribeRBC(t *testing.T) {
	const schedules = 3000
	for _, c := range []modelConfig{
		{name: "n=4 equivocating proposer", n: 4, clan: []types.NodeID{1, 2, 3}, pSrc: 1, cSrc: 3, byz: []types.NodeID{3}},
		{name: "n=4 equivocating voter", n: 4, clan: []types.NodeID{1, 2, 3}, pSrc: 1, cSrc: 2, byz: []types.NodeID{3}},
		{name: "n=7 clan of 3", n: 7, clan: []types.NodeID{0, 1, 2}, pSrc: 1, cSrc: 0, byz: []types.NodeID{0, 6}},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := crypto.NewRegistry(crypto.GenerateKeys(c.n, 3), true)
			delivered := 0
			for seed := int64(0); seed < int64(schedules); seed++ {
				bad, ok := c.run(reg, seed)
				if len(bad) > 0 {
					t.Fatalf("seed %d: %v", seed, bad)
				}
				if ok {
					delivered++
				}
			}
			if delivered == 0 {
				t.Fatal("C never delivered: the schedules test nothing")
			}
			t.Logf("C delivered in %d of %d schedules", delivered, schedules)
		})
	}
}
