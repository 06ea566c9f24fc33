package rbc

import (
	"testing"

	"clanbft/internal/crypto"
	"clanbft/internal/types"
)

// TestEvidenced is the truth table of the rule that decides whether a pull
// is retried: a position has evidence that its vertex exists only once it
// holds a vertex, a certificate or an echo tally, or a child waits on it.
func TestEvidenced(t *testing.T) {
	const n = 4
	reg := crypto.NewRegistry(crypto.GenerateKeys(n, 3), true)
	ep := Epoch{F: 1, IsMember: make([]bool, n), ClanOf: make([]types.ClanID, n)}
	for i := range ep.IsMember {
		ep.IsMember[i], ep.ClanOf[i] = true, types.NoClan
	}
	newTable := func() *Table[struct{}] {
		return New[struct{}](Config{N: n, Self: 0, Reg: reg, EpochOf: func(types.Round) Epoch { return ep }}, nil)
	}
	pos := types.Position{Round: 1, Source: 3}
	v := &types.Vertex{Round: 1, Source: 3}
	d := v.DigestCached()
	for _, c := range []struct {
		name string
		feed func(tab *Table[struct{}])
		want bool
	}{
		{"nothing", func(tab *Table[struct{}]) {}, false},
		{"an empty instance", func(tab *Table[struct{}]) { tab.Inst(pos) }, false},
		{"the proposer's VAL", func(tab *Table[struct{}]) {
			in, _ := tab.Inst(pos)
			in.Val(v)
			tab.Echo(pos, pos.Source, d)
		}, true},
		{"a foreign echo", func(tab *Table[struct{}]) {
			tab.Inst(pos)
			tab.Echo(pos, 1, d)
		}, true},
		{"a certificate", func(tab *Table[struct{}]) {
			agg := crypto.NewAggregator(n)
			var buf [CtxLen]byte
			for _, voter := range []types.NodeID{1, 2, 3} {
				agg.Add(voter, reg.PartialFor(voter, AppendEchoCtx(buf[:0], pos, d)))
			}
			tab.Inst(pos)
			tab.Adopt(&types.EchoCertMsg{Pos: pos, Digest: d, Agg: agg.Sig()})
		}, true},
		{"a parked child", func(tab *Table[struct{}]) {
			kid := &types.Vertex{Round: 2, Source: 1, StrongEdges: []types.VertexRef{v.Ref()}}
			in, _ := tab.Inst(kid.Pos())
			in.Val(kid)
			acts := tab.Check(kid.Pos(), types.Hash{})
			if len(acts) != 1 || acts[0].Kind != NeedVertex || acts[0].Pos != pos {
				t.Fatalf("the child's check asked for %+v, want one NeedVertex at %v", acts, pos)
			}
			if tab.Get(pos) != nil {
				t.Fatal("parking made an instance at the parent")
			}
		}, true},
	} {
		tab := newTable()
		c.feed(tab)
		if got := tab.Evidenced(pos); got != c.want {
			t.Errorf("%s: Evidenced = %v, want %v", c.name, got, c.want)
		}
		// Past the GC horizon nothing is evidence of anything.
		tab.GC(pos.Round + 2)
		if tab.Evidenced(pos) {
			t.Errorf("%s: evidence outlived GC", c.name)
		}
	}
}
