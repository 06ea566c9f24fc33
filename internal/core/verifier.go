package core

import (
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// Verifier returns a transport.Verifier that pre-verifies inbound message
// signatures on crypto.VerifyPool workers, before messages enter this node's
// serialized mailbox. Verified messages carry the types.VerifyMark, letting
// the handler skip its inline Reg.Verify / Reg.VerifyAgg call — the
// single-goroutine bottleneck that otherwise serializes all Ed25519 and
// aggregate verification with CheckSigs on.
//
// The returned function runs concurrently with the node's handler, so it
// touches only immutable state: the key registry and the message itself.
// It performs pure signature checks — every structural, clan, and quorum
// rule stays in the handler. Returning false drops the message (the handler
// would have rejected it for the same bad signature). Pull requests/responses
// and snapshots never get here (the transport routes unsigned kinds and
// self-sends around the pool), and the handlers skip the check for a message
// this party sent to itself.
//
// Certificates embedded inside other messages (TC/NVC justifications in
// vertices, the echo certificate in a pull reply) are still verified inline:
// they appear only on timeout and catch-up paths, far off the throughput hot
// path.
func (n *Node) Verifier() transport.Verifier {
	reg, maxEchoes := n.cfg.Reg, n.cfg.N
	return func(from types.NodeID, m types.Message) bool {
		if !reg.CheckSigs {
			return true
		}
		var buf ctxBuf
		switch msg := m.(type) {
		case *types.ValMsg:
			v := msg.Vertex
			if v == nil {
				return false
			}
			// DigestCached is safe here: under TCP each receiver decodes
			// a private copy, and in-process transports share vertices
			// whose digest the proposer already cached before sending.
			if !reg.Verify(v.Source, vertexCtx(&buf, v.DigestCached()), msg.Sig) {
				return false
			}
			msg.MarkVerified()
		case *types.EchoMsg:
			// One signature covers every entry. A frame longer than the
			// handler accepts is not worth hashing.
			var fbuf echoFrameBuf
			if len(msg.Entries) > maxEchoes || !reg.Verify(msg.Voter, echoFrameCtx(&fbuf, msg.Entries), msg.Sig) {
				return false
			}
			msg.MarkVerified()
		case *types.ViewVoteMsg:
			if !reg.Verify(msg.Vote.Voter, viewCtx(msg.Vote.Round, msg.NoVote), msg.Vote.Sig) {
				return false
			}
			msg.MarkVerified()
		case *types.TCMsg:
			if !reg.VerifyAgg(viewCtx(msg.TC.Round, false), msg.TC.Agg) {
				return false
			}
			msg.MarkVerified()
		}
		return true
	}
}
