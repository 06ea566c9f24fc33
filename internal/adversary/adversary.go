// Package adversary provides scripted Byzantine behaviours for testing: a
// malicious party runs the REAL consensus engine but its outbound traffic
// passes through a mutating transport wrapper — so the adversary stays
// protocol-plausible (correctly signed, structurally valid where it wants to
// be) while equivocating, withholding, suppressing, or flooding.
//
// This is the standard "corrupt the network interface" construction for
// Byzantine testing: behaviours compose with any mode and any transport, and
// the honest code path under test is exactly the production one.
package adversary

import (
	"clanbft/internal/crypto"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// Send is one outbound transmission.
type Send struct {
	To  types.NodeID
	Msg types.Message
}

// Mutator rewrites one outbound transmission into zero or more
// transmissions. Returning nil drops the message.
type Mutator func(to types.NodeID, m types.Message) []Send

// Endpoint wraps a real endpoint, passing every outbound message through a
// chain of mutators. Inbound traffic is untouched.
type Endpoint struct {
	transport.Endpoint
	n        int
	mutators []Mutator
}

// Wrap builds a mutating endpoint over ep for an n-party system.
func Wrap(ep transport.Endpoint, n int, mutators ...Mutator) *Endpoint {
	return &Endpoint{Endpoint: ep, n: n, mutators: mutators}
}

func (e *Endpoint) dispatch(s Send) {
	sends := []Send{s}
	for _, mut := range e.mutators {
		var next []Send
		for _, cur := range sends {
			next = append(next, mut(cur.To, cur.Msg)...)
		}
		sends = next
	}
	for _, out := range sends {
		e.Endpoint.Send(out.To, out.Msg)
	}
}

// Send applies the mutator chain.
func (e *Endpoint) Send(to types.NodeID, m types.Message) {
	e.dispatch(Send{To: to, Msg: m})
}

// Multicast applies the mutator chain per recipient.
func (e *Endpoint) Multicast(tos []types.NodeID, m types.Message) {
	for _, to := range tos {
		e.Send(to, m)
	}
}

// Broadcast applies the mutator chain per recipient.
func (e *Endpoint) Broadcast(m types.Message) {
	for i := 0; i < e.n; i++ {
		e.Send(types.NodeID(i), m)
	}
}

// ---------------------------------------------------------------------------
// Behaviours.

// Passthrough changes nothing (control case).
func Passthrough() Mutator {
	return func(to types.NodeID, m types.Message) []Send {
		return []Send{{To: to, Msg: m}}
	}
}

// Equivocate sends conflicting proposals: recipients with odd IDs receive a
// second variant of every vertex proposal whose block digest differs
// (re-signed with the adversary's real key — the equivocation is perfectly
// authenticated, as a real traitor's would be).
func Equivocate(key *crypto.KeyPair, reg *crypto.Registry) Mutator {
	return func(to types.NodeID, m types.Message) []Send {
		val, ok := m.(*types.ValMsg)
		if !ok || to%2 == 0 {
			return []Send{{To: to, Msg: m}}
		}
		twin := *val.Vertex
		twin.BlockDigest = types.HashBytes(append([]byte("evil"), byte(to)))
		// Fresh struct so the digest cache is clean.
		forged := &types.Vertex{
			Round: twin.Round, Source: twin.Source, BlockDigest: twin.BlockDigest,
			StrongEdges: twin.StrongEdges, WeakEdges: twin.WeakEdges,
			NVC: twin.NVC, TC: twin.TC,
		}
		sig := reg.SignFor(key, append([]byte{'V'}, hashOf(forged)...))
		return []Send{{To: to, Msg: &types.ValMsg{Vertex: forged, Sig: sig}}}
	}
}

func hashOf(v *types.Vertex) []byte {
	d := v.DigestCached()
	return d[:]
}

// WithholdBlocks strips the payload from proposals to every second clan
// recipient — the Byzantine-sender scenario whose recovery is the
// tribe-assisted RBC pull path.
func WithholdBlocks() Mutator {
	return func(to types.NodeID, m types.Message) []Send {
		val, ok := m.(*types.ValMsg)
		if !ok || val.Block == nil || to%2 == 0 {
			return []Send{{To: to, Msg: m}}
		}
		return []Send{{To: to, Msg: &types.ValMsg{Vertex: val.Vertex, Sig: val.Sig}}}
	}
}

// SuppressCerts strips every echo certificate this party would send: the
// one it ships with a pulled vertex.
func SuppressCerts() Mutator {
	return func(to types.NodeID, m types.Message) []Send {
		if rsp, ok := m.(*types.VtxRspMsg); ok && rsp.Cert != nil {
			m = &types.VtxRspMsg{Vertex: rsp.Vertex, Block: rsp.Block}
		}
		return []Send{{To: to, Msg: m}}
	}
}

// LazyVoter drops all outbound echo votes (participates in proposals but
// never helps quorums).
func LazyVoter() Mutator {
	return func(to types.NodeID, m types.Message) []Send {
		if _, ok := m.(*types.EchoMsg); ok {
			return nil
		}
		return []Send{{To: to, Msg: m}}
	}
}

// Flood duplicates every outbound message `extra` additional times and adds
// a far-future junk vote per message (stress for dedup paths and the
// round-window guard).
func Flood(extra int) Mutator {
	return func(to types.NodeID, m types.Message) []Send {
		out := make([]Send, 0, extra+2)
		for i := 0; i <= extra; i++ {
			out = append(out, Send{To: to, Msg: m})
		}
		out = append(out, Send{To: to, Msg: &types.EchoMsg{
			Entries: []types.EchoEntry{{Pos: types.Position{Round: 1 << 40, Source: 0}}},
		}})
		return out
	}
}

// Mute drops everything (a crash fault expressed as a mutator).
func Mute() Mutator {
	return func(types.NodeID, types.Message) []Send { return nil }
}
