package faults

import (
	"clanbft/internal/crypto"
	"clanbft/internal/types"
)

// Byzantine parties run the real consensus engine, but Net.SetByzantine puts
// a chain of mutators on their outbound traffic. The adversary stays
// protocol-plausible — correctly signed, structurally valid where it wants to
// be — while it equivocates, withholds, suppresses or floods, and the honest
// code path under test is exactly the production one.

// Outbound is one transmission a mutator emits.
type Outbound struct {
	To  types.NodeID
	Msg types.Message
}

// Mutator rewrites one outbound transmission into zero or more
// transmissions. Returning nil drops the message.
type Mutator func(to types.NodeID, m types.Message) []Outbound

// SetByzantine makes id Byzantine: every message its endpoint sends, to
// itself included, passes through muts in order before link faults are
// judged. No mutators makes id honest again. Call before traffic flows.
func (f *Net) SetByzantine(id types.NodeID, muts ...Mutator) {
	f.mu.Lock()
	f.byzantine[id] = muts
	f.mu.Unlock()
}

// mutate runs id's mutator chain over one transmission; ok is false when id
// is honest.
func (f *Net) mutate(id, to types.NodeID, m types.Message) (out []Outbound, ok bool) {
	muts := f.byzantine[id] // set before traffic flows, like tap
	if len(muts) == 0 {
		return nil, false
	}
	out = []Outbound{{To: to, Msg: m}}
	for _, mut := range muts {
		var next []Outbound
		for _, cur := range out {
			next = append(next, mut(cur.To, cur.Msg)...)
		}
		out = next
	}
	return out, true
}

// ---------------------------------------------------------------------------
// Behaviours.

// Passthrough changes nothing (control case).
func Passthrough() Mutator {
	return func(to types.NodeID, m types.Message) []Outbound {
		return []Outbound{{To: to, Msg: m}}
	}
}

// Equivocate sends conflicting proposals: recipients with odd IDs receive a
// second variant of every vertex proposal whose block digest differs
// (re-signed with the adversary's real key — the equivocation is perfectly
// authenticated, as a real traitor's would be).
func Equivocate(key *crypto.KeyPair, reg *crypto.Registry) Mutator {
	return func(to types.NodeID, m types.Message) []Outbound {
		val, ok := m.(*types.ValMsg)
		if !ok || to%2 == 0 {
			return []Outbound{{To: to, Msg: m}}
		}
		twin := *val.Vertex
		twin.BlockDigest = types.HashBytes(append([]byte("evil"), byte(to)))
		// Fresh struct so the digest cache is clean.
		forged := &types.Vertex{
			Round: twin.Round, Source: twin.Source, BlockDigest: twin.BlockDigest,
			StrongEdges: twin.StrongEdges, WeakEdges: twin.WeakEdges,
			NVC: twin.NVC, TC: twin.TC,
		}
		d := forged.DigestCached()
		sig := reg.SignFor(key, append([]byte{'V'}, d[:]...))
		return []Outbound{{To: to, Msg: &types.ValMsg{Vertex: forged, Sig: sig}}}
	}
}

// WithholdBlocks strips the payload from proposals to every second clan
// recipient — the Byzantine-sender scenario whose recovery is the
// tribe-assisted RBC pull path.
func WithholdBlocks() Mutator {
	return func(to types.NodeID, m types.Message) []Outbound {
		val, ok := m.(*types.ValMsg)
		if !ok || val.Block == nil || to%2 == 0 {
			return []Outbound{{To: to, Msg: m}}
		}
		return []Outbound{{To: to, Msg: &types.ValMsg{Vertex: val.Vertex, Sig: val.Sig}}}
	}
}

// SuppressCerts strips every echo certificate this party would send: the
// one it ships with a pulled vertex.
func SuppressCerts() Mutator {
	return func(to types.NodeID, m types.Message) []Outbound {
		if rsp, ok := m.(*types.VtxRspMsg); ok && rsp.Cert != nil {
			m = &types.VtxRspMsg{Vertex: rsp.Vertex, Block: rsp.Block}
		}
		return []Outbound{{To: to, Msg: m}}
	}
}

// LazyVoter drops all outbound echo votes (participates in proposals but
// never helps quorums).
func LazyVoter() Mutator {
	return func(to types.NodeID, m types.Message) []Outbound {
		if _, ok := m.(*types.EchoMsg); ok {
			return nil
		}
		return []Outbound{{To: to, Msg: m}}
	}
}

// Flood duplicates every outbound message `extra` additional times and adds
// a far-future junk vote per message (stress for dedup paths and the
// round-window guard).
func Flood(extra int) Mutator {
	return func(to types.NodeID, m types.Message) []Outbound {
		out := make([]Outbound, 0, extra+2)
		for i := 0; i <= extra; i++ {
			out = append(out, Outbound{To: to, Msg: m})
		}
		out = append(out, Outbound{To: to, Msg: &types.EchoMsg{
			Entries: []types.EchoEntry{{Pos: types.Position{Round: 1 << 40, Source: 0}}},
		}})
		return out
	}
}

// Mute drops everything (a crash fault expressed as a mutator).
func Mute() Mutator {
	return func(types.NodeID, types.Message) []Outbound { return nil }
}
