package core

import (
	"encoding/binary"
	"time"

	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// This file is the pipeline's front door: signing domain contexts, engine
// lifecycle (Start/Stop), and the intake dispatcher that routes verified
// messages from the transport's serialized mailbox into the RBC stage
// (stage_rbc.go) and the view layer (consensus.go).

// Signing contexts. Every signed artifact binds a domain tag so signatures
// cannot be replayed across message types.

// ctxBuf backs a vertex or echo context: a tag byte, two uvarints and a
// digest at most. Callers declare one on their stack and pass its address,
// so building a context allocates nothing.
type ctxBuf [1 + 2*binary.MaxVarintLen64 + len(types.Hash{})]byte

func vertexCtx(buf *ctxBuf, d types.Hash) []byte {
	return append(append(buf[:0], 'V'), d[:]...)
}

func echoCtx(buf *ctxBuf, pos types.Position, d types.Hash) []byte {
	return appendEchoCtx(buf[:0], pos, d)
}

func appendEchoCtx(b []byte, pos types.Position, d types.Hash) []byte {
	b = append(b, 'E')
	b = types.PutUvarint(b, uint64(pos.Round))
	b = types.PutUvarint(b, uint64(pos.Source))
	return append(b, d[:]...)
}

// echoFrameBuf backs the signing context of an ECHO frame of up to eight
// entries on its caller's stack; a longer frame spills to the heap.
type echoFrameBuf [8 * len(ctxBuf{})]byte

// echoFrameCtx is what the voter of an ECHO frame signs: its entries' echo
// contexts back to back. Each is self-delimiting (a tag, two uvarints, a
// fixed-size digest), so the concatenation parses one way only and a
// signature over k entries verifies for no other list; over one entry it is
// that entry's echoCtx.
func echoFrameCtx(buf *echoFrameBuf, entries []types.EchoEntry) []byte {
	b := buf[:0]
	for i := range entries {
		b = appendEchoCtx(b, entries[i].Pos, entries[i].Digest)
	}
	return b
}

func timeoutCtx(r types.Round) []byte {
	var b [9]byte
	b[0] = 'T'
	binary.LittleEndian.PutUint64(b[1:], uint64(r))
	return b[:]
}

func novoteCtx(r types.Round) []byte {
	var b [9]byte
	b[0] = 'N'
	binary.LittleEndian.PutUint64(b[1:], uint64(r))
	return b[:]
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
	// An endpoint that says where its mailbox drains end lets the echoes of
	// one drain share a frame; on one that does not (the simulator calls the
	// handler straight from its event loop) every handler call is a drain.
	// Settled before the handler is installed, so no handler call sees it
	// change.
	d, ok := n.ep.(transport.DrainNotifier)
	n.drainHook = ok && d.SetDrainHook(n.endDrain)
	n.ep.SetHandler(n.handle)
	n.mu.Lock()
	defer n.mu.Unlock()
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
// terminates the async execution stage (if any), waiting for an in-flight
// Deliver to return but abandoning queued-undelivered vertices (crash
// semantics — recovery re-emits the order from the store). The endpoint and
// store stay open — they belong to the caller, who typically closes the
// store next and later rebuilds a fresh Node (recovery) on the same
// endpoint. Safe to call more than once.
func (n *Node) Stop() {
	n.mu.Lock()
	n.stopped = true
	if n.roundTimer != nil {
		n.roundTimer.Stop()
		n.roundTimer = nil
	}
	n.stopAnchorTimer()
	n.flushEchoes() // stopped: ends the echo hold, sends nothing
	for _, row := range n.rbc.insts {
		for i := range row.at {
			row.at[i].stopPulls()
		}
	}
	n.mu.Unlock()
	// Outside mu: the executor goroutine's Deliver callback may call node
	// accessors that take the lock.
	if n.exec != nil {
		n.exec.stop()
	}
}

// endDrain is the endpoint's drain hook (transport.DrainNotifier): the handler
// is about to idle, so what the drain queued leaves now, unless the echo hold
// keeps it for the round's last VALs.
func (n *Node) endDrain() {
	n.mu.Lock()
	n.drainEchoes()
	n.mu.Unlock()
}

// handle dispatches inbound messages. It runs in the endpoint's serialized
// context. The intake.latency histogram observes per-message handler
// occupancy — wall time, including the wait for the node lock — which is
// the serialized path the exec stage exists to keep short.
func (n *Node) handle(from types.NodeID, m types.Message) {
	start := time.Now()
	n.mu.Lock()
	defer func() {
		if !n.drainHook {
			n.drainEchoes()
		}
		n.mu.Unlock()
		n.mIntakeMsgs.Inc()
		n.mIntakeLat.Observe(time.Since(start))
	}()
	if n.stopped {
		return
	}
	n.reclaimRows()
	switch msg := m.(type) {
	case *types.ValMsg:
		n.onVal(from, msg)
	case *types.EchoMsg:
		n.onEcho(from, msg)
	case *types.BlockReqMsg:
		n.onBlockReq(from, msg)
	case *types.BlockRspMsg:
		n.onBlockRsp(from, msg)
	case *types.VtxReqMsg:
		n.onVtxReq(from, msg)
	case *types.VtxRspMsg:
		n.onVtxRsp(from, msg)
	case *types.NoVoteMsg:
		n.onNoVote(from, msg)
	case *types.TimeoutMsg:
		n.onTimeout(from, msg)
	case *types.TCMsg:
		n.onTCMsg(from, msg)
	case *types.SnapReqMsg:
		n.onSnapReq(from, msg)
	}
}
