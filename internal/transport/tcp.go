package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/types"
)

// maxFrame bounds a single wire frame (a 3 MB proposal plus headroom).
const maxFrame = 64 << 20

// TCPEndpoint is a real-socket Endpoint. Every party listens on its address
// from the shared address book and dials peers lazily; outbound messages are
// queued per peer and flushed by a writer goroutine that reconnects with
// backoff, so a crashed peer never blocks the protocol (the reliable-link
// assumption of the paper: TCP keeps retransmitting until acknowledged).
//
// Peer identity is established by a plaintext handshake carrying the dialing
// party's NodeID. Production deployments would authenticate the channel
// (TLS with pinned keys); the protocols themselves sign every message that
// needs authenticity, so the handshake only routes traffic.
type TCPEndpoint struct {
	id    types.NodeID
	addrs map[types.NodeID]string
	ln    net.Listener
	mb    *mailbox
	clock *realClock

	mu       sync.Mutex
	peers    map[types.NodeID]*peerConn
	accepted map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	// everyone is the address book's ids in ascending order, built on first
	// use and dropped when AddPeer may have grown the book (SetPeerAddr only
	// rebinds an id already in it). A built slice is never written again,
	// so Broadcast reads it outside mu.
	everyone []types.NodeID

	verify atomic.Pointer[verifyStage]

	msgsSent        atomic.Uint64
	bytesSent       atomic.Uint64
	msgsRecv        atomic.Uint64
	bytesRecv       atomic.Uint64
	msgsDropped     atomic.Uint64
	rxAllocBytes    atomic.Uint64
	coalescedFrames atomic.Uint64
	flushes         atomic.Uint64
	vc              verifyCounters
}

// A writer that finds several frames queued gathers them into one writev,
// up to batchFrames frames or until batchBytes of frame payload are batched,
// and flushes as soon as the queue runs dry: vote bursts collapse into one
// syscall while an idle queue still sends immediately. The wire bytes are
// those of writing each frame alone — every frame keeps its own length
// prefix — only syscall boundaries change.
const (
	batchFrames = 64
	batchBytes  = 64 << 10
)

type peerConn struct {
	out    chan *frame
	closed chan struct{}
}

// outQueueLen bounds per-peer buffered frames; beyond it sends drop (the
// peer is too slow or down — RBC-level retransmission recovers).
const outQueueLen = 4096

// NewTCPEndpoint creates the endpoint for party self, listening on
// addrs[self].
func NewTCPEndpoint(self types.NodeID, addrs map[types.NodeID]string) (*TCPEndpoint, error) {
	addr, ok := addrs[self]
	if !ok {
		return nil, fmt.Errorf("transport: no address for self %d", self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	book := make(map[types.NodeID]string, len(addrs))
	for id, a := range addrs {
		book[id] = a
	}
	e := &TCPEndpoint{
		id:       self,
		addrs:    book,
		ln:       ln,
		mb:       newMailbox(),
		peers:    map[types.NodeID]*peerConn{},
		accepted: map[net.Conn]struct{}{},
	}
	e.clock = &realClock{epoch: time.Now(), mb: e.mb}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the endpoint's bound listen address (useful with ":0").
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// SetPeerAddr rebinds one peer's dial address. It exists for bootstrap
// choreography where every node listens on ":0" first and the real ports are
// exchanged afterwards (cmd/loadgen's self-hosted cluster, the TCP tests).
// A rebind takes effect on the peer's next (re)dial; established connections
// are not torn down.
func (e *TCPEndpoint) SetPeerAddr(id types.NodeID, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.addrs[id]; ok {
		e.addrs[id] = addr
	}
}

// AddPeer admits a peer mid-run: it is added to the address book (or its
// address rebound if already present), so Broadcast reaches it, inbound
// handshakes from it are accepted, and outbound frames dial addr. This is the
// transport half of epoch reconfiguration — a committed join's dial address
// flows here via the core OnReconfig callback.
func (e *TCPEndpoint) AddPeer(id types.NodeID, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.addrs[id] = addr
	e.everyone = nil
}

// addrOf reads a peer's dial address under the lock (writer goroutines call
// this on every dial, racing AddPeer/SetPeerAddr otherwise).
func (e *TCPEndpoint) addrOf(id types.NodeID) (string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.addrs[id]
	return a, ok
}

// knownPeer reports whether id is in the address book.
func (e *TCPEndpoint) knownPeer(id types.NodeID) bool {
	_, ok := e.addrOf(id)
	return ok
}

// Clock returns a wall clock whose callbacks are serialized with this
// endpoint's handler.
func (e *TCPEndpoint) Clock() Clock { return e.clock }

func (e *TCPEndpoint) Self() types.NodeID { return e.id }

func (e *TCPEndpoint) SetHandler(h Handler) {
	e.mb.setHandler(h)
	e.mb.start()
}

// SetVerifier installs a pre-verification stage (see VerifyingEndpoint):
// inbound frames are signature-checked on pool workers before their turn in
// the serialized mailbox. Call before traffic arrives.
func (e *TCPEndpoint) SetVerifier(v Verifier, pool *crypto.VerifyPool) {
	e.verify.Store(&verifyStage{verifier: v, pool: pool})
}

// SetDrainHook implements DrainNotifier.
func (e *TCPEndpoint) SetDrainHook(fn func()) bool { e.mb.setDrainHook(fn); return true }

func (e *TCPEndpoint) Send(to types.NodeID, m types.Message) {
	if to == e.id {
		e.mb.push(task{from: e.id, msg: m})
		return
	}
	e.enqueue(to, encodeFrame(m, 1))
}

// Multicast marshals m exactly once and hands the same immutable frame to
// every remote peer's out-queue; self-delivery bypasses encoding entirely.
// Accounting stays exact per peer: each successful enqueue counts one
// MsgsSent + the frame's bytes, each failed one counts one MsgsDropped.
func (e *TCPEndpoint) Multicast(tos []types.NodeID, m types.Message) {
	remote := 0
	for _, to := range tos {
		if to != e.id {
			remote++
		}
	}
	var f *frame
	if remote > 0 {
		f = encodeFrame(m, int32(remote))
	}
	for _, to := range tos {
		if to == e.id {
			e.mb.push(task{from: e.id, msg: m})
			continue
		}
		e.enqueue(to, f)
	}
}

// Broadcast multicasts to every party in ascending NodeID order. The order is
// deterministic (the address book is a map) so that runs over identical
// inputs enqueue identical sequences — map iteration order used to make
// otherwise-reproducible runs diverge.
func (e *TCPEndpoint) Broadcast(m types.Message) {
	e.mu.Lock()
	if e.everyone == nil {
		ids := make([]types.NodeID, 0, len(e.addrs))
		for id := range e.addrs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		e.everyone = ids
	}
	ids := e.everyone
	e.mu.Unlock()
	e.Multicast(ids, m)
}

// enqueue hands one frame reference to peer to's out-queue. Failure paths
// (endpoint closing, full queue) release the reference and count the drop, so
// the frame's refcount always balances no matter how many peers accept it.
func (e *TCPEndpoint) enqueue(to types.NodeID, f *frame) {
	p := e.peer(to)
	if p == nil {
		e.msgsDropped.Add(1)
		f.release()
		return
	}
	// Size must be read before the handoff: once the frame is in the queue
	// the writer goroutine may consume and release it at any moment.
	n := uint64(len(f.b))
	select {
	case p.out <- f:
		// Count only frames actually enqueued toward the wire.
		e.msgsSent.Add(1)
		e.bytesSent.Add(n)
	default:
		// Queue full: drop. The protocol layer tolerates loss before
		// GST; steady-state queues never fill at sane loads.
		e.msgsDropped.Add(1)
		f.release()
	}
}

func (e *TCPEndpoint) Stats() Stats {
	s := Stats{
		MsgsSent:        e.msgsSent.Load(),
		BytesSent:       e.bytesSent.Load(),
		MsgsRecv:        e.msgsRecv.Load(),
		BytesRecv:       e.bytesRecv.Load(),
		MsgsDropped:     e.msgsDropped.Load(),
		RxAllocBytes:    e.rxAllocBytes.Load(),
		CoalescedFrames: e.coalescedFrames.Load(),
		Flushes:         e.flushes.Load(),
	}
	e.vc.fill(&s)
	s.HandlerQueue = uint64(e.mb.depth())
	return s
}

// peer returns (creating if needed) the outbound connection state for id.
func (e *TCPEndpoint) peer(id types.NodeID) *peerConn {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	if p, ok := e.peers[id]; ok {
		return p
	}
	p := &peerConn{out: make(chan *frame, outQueueLen), closed: make(chan struct{})}
	e.peers[id] = p
	e.wg.Add(1)
	go e.writeLoop(id, p)
	return p
}

// reconnectBackoff is the initial (and post-success reset) reconnect delay;
// maxReconnectBackoff caps the exponential growth.
const (
	reconnectBackoff    = 50 * time.Millisecond
	maxReconnectBackoff = 2 * time.Second
)

// jittered returns a uniformly random duration in [d/2, d]. Reconnect sleeps
// are jittered so that a tribe whose peer restarts does not hammer it with
// synchronized redial storms.
func jittered(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

func (e *TCPEndpoint) writeLoop(id types.NodeID, p *peerConn) {
	defer e.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
		// Drain frames still queued at shutdown so shared buffers return to
		// the pool instead of waiting for the GC.
		for {
			select {
			case f := <-p.out:
				f.release()
			default:
				return
			}
		}
	}()
	backoff := reconnectBackoff
	// Batch state lives outside the loop so steady-state flushes allocate
	// nothing: hdrs holds every frame's 4-byte length prefix, scratch backs
	// the net.Buffers gather list (header and shared frame bytes alternate),
	// and one WriteTo turns the whole batch into a single writev. WriteTo
	// consumes the Buffers value it is given (advancing it past its backing
	// array), so each flush appends into scratch's stable array and hands
	// WriteTo an alias; the frame bytes themselves are shared with other
	// peers' writers and never copied per peer.
	var (
		batch   []*frame
		hdrs    []byte
		scratch net.Buffers
		bufs    net.Buffers
	)
	releaseBatch := func() {
		for _, fb := range batch {
			fb.release()
		}
		batch = batch[:0]
	}
	// sleepBackoff waits out the current (jittered) backoff, doubling it
	// for next time; it returns false when the peer entry was closed.
	sleepBackoff := func() bool {
		select {
		case <-p.closed:
			return false
		case <-time.After(jittered(backoff)):
		}
		if backoff < maxReconnectBackoff {
			backoff *= 2
		}
		return true
	}
	for {
		select {
		case <-p.closed:
			return
		case f := <-p.out:
			batch = append(batch[:0], f)
			bytes := len(f.b)
			// Gather: greedily drain queued frames into the batch, up to the
			// frame/byte caps or until the queue runs dry.
		gather:
			for len(batch) < batchFrames && bytes < batchBytes {
				select {
				case f2 := <-p.out:
					batch = append(batch, f2)
					bytes += len(f2.b)
				default:
					break gather
				}
			}
			for conn == nil {
				addr, ok := e.addrOf(id)
				if !ok {
					// Unknown peer (e.g. admitted by a reconfig this
					// party has not processed yet): back off and re-check
					// — AddPeer may land any moment.
					if !sleepBackoff() {
						releaseBatch()
						return
					}
					continue
				}
				c, err := net.DialTimeout("tcp", addr, 2*time.Second)
				if err != nil {
					if !sleepBackoff() {
						releaseBatch()
						return
					}
					continue
				}
				// Handshake: announce who is dialing. A half-open peer
				// (accepting but not reading) must neither wedge the
				// writer nor trigger a tight redial spin, so the write
				// is bounded by a deadline and a failure takes the same
				// backoff path as a failed dial.
				var hello [2]byte
				binary.BigEndian.PutUint16(hello[:], uint16(e.id))
				c.SetWriteDeadline(time.Now().Add(5 * time.Second))
				if _, err := c.Write(hello[:]); err != nil {
					c.Close()
					if !sleepBackoff() {
						releaseBatch()
						return
					}
					continue
				}
				conn = c
				backoff = reconnectBackoff
			}
			// A peer that stops reading must not wedge the writer
			// forever: bound each flush.
			if err := conn.SetWriteDeadline(time.Now().Add(30 * time.Second)); err != nil {
				// Connection already unusable (closed underfoot).
				e.msgsDropped.Add(uint64(len(batch)))
				conn.Close()
				conn = nil
				releaseBatch()
				continue
			}
			// Headers first (appends may grow hdrs), then the gather list
			// aliasing hdrs' now-stable backing array. The wire stream is
			// byte-identical to writing each frame alone: every frame keeps
			// its own length prefix, only syscall boundaries change.
			hdrs = hdrs[:0]
			for _, fb := range batch {
				hdrs = binary.BigEndian.AppendUint32(hdrs, uint32(len(fb.b)))
			}
			bufs = scratch[:0]
			for i, fb := range batch {
				bufs = append(bufs, hdrs[4*i:4*i+4], fb.b)
			}
			scratch = bufs[:0]
			if _, err := bufs.WriteTo(conn); err != nil {
				// Flush failed: drop the whole batch, reconnect on next send.
				e.msgsDropped.Add(uint64(len(batch)))
				conn.Close()
				conn = nil
			} else {
				e.flushes.Add(1)
				e.coalescedFrames.Add(uint64(len(batch) - 1))
			}
			releaseBatch()
		}
	}
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.accepted[c] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

func (e *TCPEndpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.accepted, c)
		e.mu.Unlock()
	}()
	var hello [2]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		return
	}
	from := types.NodeID(binary.BigEndian.Uint16(hello[:]))
	if from == e.id || !e.knownPeer(from) {
		// Unknown peer, or one claiming this party's own id: handlers
		// trust from == Self as a local self-send, so it must never
		// come off a socket.
		return
	}
	// Frames are sliced out of the connection's read buffer and decoded
	// before the next read overwrites it: decoded messages own their bytes.
	fr := NewFrameReader(c, &e.rxAllocBytes)
	defer fr.Close()
	var dec types.Decoder
	for {
		frame, err := fr.Next()
		if err != nil {
			// Truncated header, out-of-range length prefix, or mid-frame
			// EOF: the stream is unrecoverable — close the connection.
			return
		}
		m, err := dec.Decode(frame)
		if err != nil {
			continue // malformed message from a (possibly Byzantine) peer
		}
		e.msgsRecv.Add(1)
		e.bytesRecv.Add(uint64(len(frame)))
		dispatchInbound(e.mb, e.verify.Load(), &e.vc, from, m)
	}
}

func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for _, p := range e.peers {
		close(p.closed)
	}
	// Force-close inbound connections so readLoops unblock even while the
	// remote ends stay up.
	for c := range e.accepted {
		c.Close()
	}
	e.mu.Unlock()
	err := e.ln.Close()
	e.mb.close()
	e.wg.Wait()
	return err
}
