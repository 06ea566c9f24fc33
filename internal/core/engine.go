package core

import (
	"encoding/binary"
	"time"

	"clanbft/internal/rbc"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// This file is the pipeline's front door: signing domain contexts, engine
// lifecycle (Start/Stop), and step, the one entry point, which routes each
// input — a verified message from the transport's serialized mailbox, a
// drain end, a timer fire, a reconfig submission — into the RBC stage
// (stage_rbc.go), the view layer (consensus.go) and the epoch table.

// Signing contexts. Every signed artifact binds a domain tag so signatures
// cannot be replayed across message types.

// ctxBuf backs a vertex or echo context, an echo's being the longer.
// Callers declare one on their stack and pass its address, so building a
// context allocates nothing.
type ctxBuf [rbc.CtxLen]byte

func vertexCtx(buf *ctxBuf, d types.Hash) []byte {
	return append(append(buf[:0], 'V'), d[:]...)
}

// echoFrameBuf backs the signing context of an ECHO frame of up to eight
// entries on its caller's stack; a longer frame spills to the heap.
type echoFrameBuf [8 * len(ctxBuf{})]byte

// echoFrameCtx is what the voter of an ECHO frame signs: its entries' echo
// contexts back to back. Each is self-delimiting (a tag, two uvarints, a
// fixed-size digest), so the concatenation parses one way only and a
// signature over k entries verifies for no other list; over one entry it is
// that entry's echo context (rbc.AppendEchoCtx).
func echoFrameCtx(buf *echoFrameBuf, entries []types.EchoEntry) []byte {
	b := buf[:0]
	for i := range entries {
		b = rbc.AppendEchoCtx(b, entries[i].Pos, entries[i].Digest)
	}
	return b
}

// viewCtx is what a member signs to time out round r, or (noVote) to refuse
// round r's leader its vote.
func viewCtx(r types.Round, noVote bool) []byte {
	var b [9]byte
	b[0] = 'T'
	if noVote {
		b[0] = 'N'
	}
	binary.LittleEndian.PutUint64(b[1:], uint64(r))
	return b[:]
}

// inputKind names one kind of input to the node. Each input is one step.
type inputKind uint8

const (
	inMessage     inputKind = iota // msg from `from`, past the transport's checks
	inDrainEnd                     // the endpoint's mailbox is about to idle
	inRoundTimer                   // the round timer fired (roundFired)
	inAnchorTimer                  // the anchor-hold timer fired (anchorFired)
	inEchoTimer                    // the echo-hold timer fired (echoFired)
	inPullRetry                    // pos's pull timer fired
	inReconfig                     // tx submitted for this party's next proposal
)

// input is one input to the node: the kind and what that kind carries.
type input struct {
	kind inputKind
	from types.NodeID
	msg  types.Message
	pos  types.Position
	tx   *types.ReconfigTx
}

// Start installs the node as the endpoint handler and proposes its round-0
// vertex — or, when a persistent store holds prior state, recovers from it
// and resumes from the recorded round instead (never re-proposing a round it
// already proposed in, which would be equivocation). Call exactly once.
func (n *Node) Start() {
	if n.started {
		panic("core: Start called twice")
	}
	n.started = true
	// The echoes of one drain share a frame: installed before the handler,
	// so no handler call runs without the hook.
	n.ep.SetDrainHook(func() { n.step(input{kind: inDrainEnd}) })
	n.ep.SetHandler(func(from types.NodeID, m types.Message) { n.step(input{kind: inMessage, from: from, msg: m}) })
	n.mu.Lock()
	defer n.mu.Unlock()
	n.now = n.clk.Now()
	if n.recoverFromStore() {
		// Resume: advance if the recovered state already holds the next
		// quorum; otherwise catch up from peers (vertex pulls + the
		// round-jump rule in tryAdvance).
		n.armRoundTimer()
		n.drainCommits()
		n.tryAdvance()
		return
	}
	// Fresh start: members propose round 0; non-members of epoch 0 start
	// as observers and become proposers at the fence that admits them.
	n.advanceTo(0)
}

// Stop tears the engine down mid-run (crash simulation, harness shutdown):
// it cancels the round timer and every pending pull timer and marks the node
// stopped, so late timer fires and inbound messages become no-ops; then it
// terminates the execution stage, waiting for an in-flight Deliver to
// return but abandoning queued-undelivered vertices (crash semantics —
// recovery re-emits the order from the store). The endpoint and
// store stay open — they belong to the caller, who typically closes the
// store next and later rebuilds a fresh Node (recovery) on the same
// endpoint. Safe to call more than once.
func (n *Node) Stop() {
	n.mu.Lock()
	n.stopped = true
	n.now = n.clk.Now()
	n.roundTimer.Stop()
	n.roundTimer = transport.Timer{}
	n.stopAnchorTimer()
	n.flushEchoes() // stopped: ends the echo hold, sends nothing
	n.rbc.Range(func(_ types.Position, in *inst) { in.X.stop() })
	n.mu.Unlock()
	// Outside mu: the executor goroutine's Deliver callback may call node
	// accessors that take the lock.
	n.exec.stop()
}

// step is the node's one way in: every input takes the node lock here, is
// dropped once the node has stopped, and runs against one clock reading,
// n.now. A timer input acts only while its timer is armed. The
// intake.latency histogram observes each message's handler occupancy — wall
// time, including the wait for the lock — which is the serialized path the
// exec stage exists to keep short.
func (n *Node) step(in input) {
	start := time.Now()
	n.mu.Lock()
	defer func() {
		n.mu.Unlock()
		if in.kind == inMessage {
			n.mIntakeMsgs.Inc()
			n.mIntakeLat.Observe(time.Since(start))
		}
	}()
	if n.stopped {
		return
	}
	n.now = n.clk.Now()
	switch in.kind {
	case inMessage:
		n.rbc.Reclaim()
		switch msg := in.msg.(type) {
		case *types.ValMsg:
			n.onVal(in.from, msg)
		case *types.EchoMsg:
			n.onEcho(in.from, msg)
		case *types.VtxReqMsg:
			n.onVtxReq(in.from, msg)
		case *types.VtxRspMsg:
			n.onVtxRsp(in.from, msg)
		case *types.ViewVoteMsg:
			n.onViewVote(in.from, msg)
		case *types.TCMsg:
			n.onTCMsg(msg)
		case *types.SnapReqMsg:
			n.onSnapReq(in.from, msg)
		}
	case inDrainEnd:
		// What the drain queued leaves now, unless the echo hold keeps it for
		// the round's last VALs.
		n.drainEchoes()
	case inRoundTimer:
		// Stopped before the round moves: the round it fires for is n.round.
		if !n.roundTimer.IsZero() {
			n.roundTimer = transport.Timer{}
			n.onRoundTimeout()
		}
	case inAnchorTimer:
		// It waives the round it was last armed for.
		if !n.anchorTimer.IsZero() {
			n.anchorTimer = transport.Timer{}
			n.endAnchorHold()
			n.anchorWaived = n.anchorTimerRound + 1
			n.tryAdvance()
		}
	case inEchoTimer:
		if !n.echoTimer.IsZero() {
			n.flushEchoes()
		}
	case inPullRetry:
		if r := n.rbc.Get(in.pos); r != nil && !r.X.pull.IsZero() {
			r.X.pull = transport.Timer{}
			n.pull(in.pos, r)
		}
	case inReconfig:
		if len(n.pendingReconfig) < types.MaxReconfigPerVertex { // bounded; the client retries after the next fence
			n.pendingReconfig = append(n.pendingReconfig, *in.tx)
		}
	}
}
