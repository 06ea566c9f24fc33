package core

import (
	"clanbft/internal/crypto"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// Each signed kind's signature is checked by one function below, run by a
// crypto.VerifyPool worker (Verifier) or by the handler for a frame that
// reached it unmarked. They read only the key registry and the message, so
// they are safe on any goroutine; structural, clan and quorum rules stay in
// the handlers.

// valSigOK checks a VAL's vertex signature. DigestCached is safe on a worker:
// each TCP receiver decodes a private copy.
func valSigOK(reg *crypto.Registry, m *types.ValMsg) bool {
	var buf ctxBuf
	return m.Vertex != nil && reg.Verify(m.Vertex.Source, vertexCtx(&buf, m.Vertex.DigestCached()), m.Sig)
}

// echoSigOK checks an ECHO frame's one signature over all its entries; a
// frame of more than n entries, which flushEchoes never sends, is refused
// unhashed.
func echoSigOK(reg *crypto.Registry, n int, m *types.EchoMsg) bool {
	if len(m.Entries) > n {
		return false
	}
	var buf echoFrameBuf
	return !reg.CheckSigs || reg.Verify(m.Voter, echoFrameCtx(&buf, m.Entries), m.Sig)
}

func viewVoteSigOK(reg *crypto.Registry, m *types.ViewVoteMsg) bool {
	return reg.Verify(m.Vote.Voter, viewCtx(m.Vote.Round, m.NoVote), m.Vote.Sig)
}

// viewCertSigOK checks a timeout or (noVote) no-vote certificate's aggregate
// for round r, broadcast as a TC or embedded in a vertex.
func viewCertSigOK(reg *crypto.Registry, r types.Round, noVote bool, agg types.AggSig) bool {
	return reg.VerifyAgg(viewCtx(r, noVote), agg)
}

// Verifier returns a transport.Verifier that checks inbound signatures on the
// verify pool, before messages enter this node's serialized mailbox, and
// marks what passes (types.VerifyMark) so the handler skips its own check.
// Returning false drops the message. Unsigned kinds and self-sends never get
// here. Certificates embedded in other messages (a vertex's TC and NVC, a
// pull reply's echo certificate) are checked by the handler: they appear
// only on timeout and catch-up paths.
func (n *Node) Verifier() transport.Verifier {
	reg, maxEchoes := n.cfg.Reg, n.cfg.N
	return func(from types.NodeID, m types.Message) bool {
		var ok bool
		switch msg := m.(type) {
		case *types.ValMsg:
			ok = valSigOK(reg, msg)
		case *types.EchoMsg:
			ok = echoSigOK(reg, maxEchoes, msg)
		case *types.ViewVoteMsg:
			ok = viewVoteSigOK(reg, msg)
		case *types.TCMsg:
			ok = viewCertSigOK(reg, msg.TC.Round, false, msg.TC.Agg)
		default:
			return true
		}
		if ok {
			m.(types.PreVerifiable).MarkVerified()
		}
		return ok
	}
}
