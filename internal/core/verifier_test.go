package core

import (
	"testing"

	"clanbft/internal/crypto"
	"clanbft/internal/types"
)

// TestSignedKindsCheckedOnce: each signed kind's signature is checked by one
// function, whether a verify-pool worker runs it (Verifier) or the handler
// does for a frame that reached it unmarked. Each frame goes to a fresh
// node's handler first, unmarked, and then to the pool: intact, both take it;
// with one signature byte flipped, the pool refuses it and the handler counts
// nothing.
func TestSignedKindsCheckedOnce(t *testing.T) {
	const n = 4
	keys := testKeys(n)
	v2, _ := round0(keys, 2)
	echo := types.EchoEntry{Pos: v2.Pos(), Digest: v2.DigestCached()}
	tc := crypto.NewAggregator(n)
	for id := types.NodeID(1); id < n; id++ {
		tc.Add(id, crypto.PartialTag(&keys[id], viewCtx(0, false)))
	}
	for _, c := range []struct {
		kind    string
		frame   func(flip bool) types.Message // node 1's, fresh and unmarked
		counted func(*Node) bool
	}{
		{"VAL", func(flip bool) types.Message {
			_, val := round0(keys, 1)
			val.Sig[0] ^= flipByte(flip)
			return val
		}, func(nd *Node) bool {
			in := nd.rbc.Get(types.Position{Round: 0, Source: 1})
			return in != nil && in.HasVal()
		}},
		{"ECHO", func(flip bool) types.Message {
			m := signedEchoes(&keys[1], 1, echo)
			m.Sig[0] ^= flipByte(flip)
			return m
		}, func(nd *Node) bool {
			in := nd.rbc.Get(echo.Pos)
			return in != nil && types.BitmapHas(in.Tally(echo.Digest), 1)
		}},
		{"view vote", func(flip bool) types.Message {
			m := &types.ViewVoteMsg{Vote: types.ViewVote{Round: 0, Voter: 1, Sig: crypto.Sign(&keys[1], viewCtx(0, false))}}
			m.Vote.Sig[0] ^= flipByte(flip)
			return m
		}, func(nd *Node) bool {
			vw := nd.views[0]
			return vw != nil && vw.aggs[voteKind(false)] != nil && types.BitmapHas(vw.aggs[voteKind(false)].Bitmap(), 1)
		}},
		{"TC", func(flip bool) types.Message {
			m := &types.TCMsg{TC: types.ViewCert{Round: 0, Agg: tc.Sig().Clone()}}
			m.TC.Agg.Tag[0] ^= flipByte(flip)
			return m
		}, func(nd *Node) bool { return nd.viewCert(0, false) != nil }},
	} {
		for _, flip := range []bool{false, true} {
			m := c.frame(flip)
			_, node := oneNode(t, n, 0, topt{})
			node.step(msgIn(1, m))
			if got := c.counted(node); got == flip {
				t.Errorf("%s, signature byte flipped %v: the handler counted it: %v", c.kind, flip, got)
			}
			if got := node.Verifier()(1, m); got == flip {
				t.Errorf("%s, signature byte flipped %v: the pool passed it: %v", c.kind, flip, got)
			}
		}
	}
}

func flipByte(flip bool) byte {
	if flip {
		return 1
	}
	return 0
}
