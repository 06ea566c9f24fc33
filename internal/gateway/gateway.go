package gateway

import (
	"crypto/sha256"
	"fmt"
	"net"
	"sync"
	"time"

	"clanbft/internal/metrics"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// Config wires a Gateway to its host node. The gateway deliberately knows
// nothing about mempool, core, or execution types — the host adapts them into
// three closures — so the package has no dependency edge back into the
// pipeline: the library's TCPNode.ServeGateway is its one host, and the
// micro benchmarks (internal/perfbench) drive it over stub closures.
type Config struct {
	// Addr is the TCP listen address (use "127.0.0.1:0" for tests).
	Addr string
	// Submit injects one admitted transaction into the node's mempool. The
	// slice is the connection's read buffer, valid only for the call: the
	// callee copies what it keeps (mempool.Pool.Submit does). Required.
	Submit func(tx []byte)
	// Depth reports the mempool's true queued depth; consulted inline on
	// every submission for the overload watermark. Required.
	Depth func() int
	// Metrics receives the gateway's instruments (gateway.* namespace) and
	// is where the overload monitor reads the node's exec queue-wait. Pass
	// the node's pipeline registry, so PipelineSnapshot carries the former
	// and the latter exists; nil uses a private registry, which leaves the
	// queue-wait signal idle.
	Metrics *metrics.Registry
	// Limits is the admission-control configuration (zero value = defaults).
	Limits Limits
	// Read configures f_c+1 read aggregation. Zero Responders disables the
	// read path (reads answer with ReadNoQuorum).
	Read ReadConfig
	// MaxTx caps one transaction's byte length (default 64 KiB).
	MaxTx int
	// MaxFrame caps one client frame (default 1 MiB) — a hostile length
	// prefix beyond it is a terminal protocol error before any buffering.
	MaxFrame int
	// ReadTimeout is the per-frame read deadline: a frame's bytes must
	// fully arrive within it, which kills slow-loris trickle and idle
	// connections alike (default 2 min; clients that only await commit
	// notifications must submit or re-HELLO within it).
	ReadTimeout time.Duration
	// WriteQueue bounds a connection's unwritten backlog (default 1024), in
	// units of writeQueueUnit bytes. A client whose backlog is over the
	// bound loses frames (counted in gateway.slow_drops) rather than
	// stalling the consensus callback; one that is merely bursty loses
	// nothing.
	WriteQueue int
}

// Gateway is the client front door: one TCP listener, one reader goroutine
// per connection (reusing the transport's FrameReader), one writer goroutine
// per connection draining its write buffer, a sharded pending table matching
// commits back to submitters, and the two-layer admission control from
// admission.go / backpressure.go.
type Gateway struct {
	cfg     Config
	ln      net.Listener
	admit   *Admitter
	monitor *overloadMonitor

	connMu sync.Mutex
	conns  map[*gwConn]struct{}

	pending [pendingShards]pendingShard

	wg      sync.WaitGroup
	closing chan struct{}
	once    sync.Once
	start   time.Time // origin of now

	// hot-path instruments, resolved once
	mSubmitted  *metrics.Counter
	mAdmitted   *metrics.Counter
	mRejRate    *metrics.Counter
	mRejLoad    *metrics.Counter
	mRejLarge   *metrics.Counter
	mRejMalform *metrics.Counter
	mProtoErr   *metrics.Counter
	mReads      *metrics.Counter
	mSlowDrops  *metrics.Counter
	mConnected  *metrics.Gauge
	mPending    *metrics.Gauge
	mE2E        *metrics.Histogram
	mReadLat    *metrics.Histogram
}

const pendingShards = 16

type pendingShard struct {
	mu   sync.Mutex
	subs map[[32]byte]pendingEntry
}

// pendingEntry is who awaits one transaction's commit. The entry lives in
// the map by value with its usual single submitter inline, so registering a
// transaction allocates nothing; more holds further submitters of
// byte-identical transactions. The map's buckets outlive every burst (Go
// maps do not shrink), so the entry is kept to 40 bytes: a pointer for the
// rare list, a clock reading rather than a time.Time.
type pendingEntry struct {
	first pendingSub
	more  *[]pendingSub
}

type pendingSub struct {
	conn   *gwConn
	client uint64
	seq    uint64
	at     time.Duration // admitted, on the gateway's clock (Gateway.now)
}

const (
	// writeQueueUnit converts Config.WriteQueue into the byte bound on a
	// connection's backlog: the buffer pool's smallest class, so the
	// default of 1024 allows 512 KiB.
	writeQueueUnit = 512
	// connBufSize is a write buffer's capacity at rest: a block's worth of
	// COMMIT frames (~15 B each) fits. A buffer a burst grew past it goes
	// back to the pool once written, so an idle connection holds 8 KiB.
	connBufSize = 4 << 10
	// frameMax bounds a server frame's bytes besides its value.
	frameMax = 64
)

// gwConn is one client connection. Frames for the client are appended to
// wbuf under mu from any goroutine; the writer goroutine swaps wbuf for its
// empty spare and writes the full one, so a frame costs no buffer of its own
// and a burst costs one socket write. Both buffers are pooled: wbuf belongs
// to the connection (returned by close), the spare to the writer.
type gwConn struct {
	c     net.Conn
	limit int           // bytes of backlog beyond which frames are dropped
	wake  chan struct{} // buffered 1: wbuf went from empty to non-empty

	mu     sync.Mutex
	wbuf   []byte
	closed bool
	// reads holds the connection's idle read operations, of the readsMade it
	// has made: at most maxConnReads, which bounds its reads — serving, or
	// awaiting a late poll — and their goroutines in flight.
	reads     []*readOp
	readsMade int
}

const maxConnReads = 256

// getReadOp hands out a read operation, or nil when maxConnReads are out.
func (c *gwConn) getReadOp(g *Gateway) (op *readOp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := len(c.reads); k > 0 {
		op, c.reads = c.reads[k-1], c.reads[:k-1]
	} else if c.readsMade < maxConnReads {
		c.readsMade++
		op = newReadOp(g.cfg.Read)
		op.g, op.conn = g, c
	}
	return op
}

// send appends one frame for the writer. Returns false when the connection
// is closed or its backlog is over the bound — callers on the consensus
// notification path must never block.
func (c *gwConn) send(ev ServerEvent) bool {
	c.mu.Lock()
	ok := c.sendLocked(&ev)
	c.mu.Unlock()
	return ok
}

// sendLocked is send with mu held.
func (c *gwConn) sendLocked(ev *ServerEvent) bool {
	if c.closed {
		return false
	}
	n := len(c.wbuf)
	if need := n + frameMax + len(ev.Value); need > cap(c.wbuf) {
		// A backlog that outgrows its buffer moves to a pooled one of twice
		// the size, so a burst of VALUEs reuses what earlier bursts grew.
		old := c.wbuf
		c.wbuf = append(types.GetBuf(2*need), old...)
		types.PutBuf(old)
	}
	c.wbuf = appendEvent(c.wbuf, ev)
	if len(c.wbuf) > c.limit {
		c.wbuf = c.wbuf[:n]
		return false
	}
	if n == 0 {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
	return true
}

func (c *gwConn) close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.wake)
		types.PutBuf(c.wbuf)
		c.wbuf = nil
	}
	c.mu.Unlock()
	c.c.Close()
}

// New starts a gateway listening on cfg.Addr.
func New(cfg Config) (*Gateway, error) {
	if cfg.Submit == nil || cfg.Depth == nil {
		return nil, fmt.Errorf("gateway: Config.Submit and Config.Depth are required")
	}
	cfg.Limits.fill()
	if cfg.MaxTx == 0 {
		cfg.MaxTx = 64 << 10
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = 1 << 20
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 2 * time.Minute
	}
	if cfg.WriteQueue == 0 {
		cfg.WriteQueue = 1024
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen %s: %w", cfg.Addr, err)
	}
	g := &Gateway{
		cfg:     cfg,
		ln:      ln,
		admit:   NewAdmitter(cfg.Limits),
		monitor: newOverloadMonitor(cfg.Metrics, cfg.Limits),
		conns:   map[*gwConn]struct{}{},
		closing: make(chan struct{}),
		start:   time.Now(),
	}
	for i := range g.pending {
		g.pending[i].subs = map[[32]byte]pendingEntry{}
	}
	r := cfg.Metrics
	g.mSubmitted = r.Counter("gateway.submissions")
	g.mAdmitted = r.Counter("gateway.admitted")
	g.mRejRate = r.Counter("gateway.rejected_ratelimit")
	g.mRejLoad = r.Counter("gateway.rejected_overload")
	g.mRejLarge = r.Counter("gateway.rejected_toolarge")
	g.mRejMalform = r.Counter("gateway.rejected_malformed")
	g.mProtoErr = r.Counter("gateway.protocol_errors")
	g.mReads = r.Counter("gateway.reads")
	g.mSlowDrops = r.Counter("gateway.slow_drops")
	g.mConnected = r.Gauge("gateway.connected")
	g.mPending = r.Gauge("gateway.pending")
	g.mE2E = r.Histogram("gateway.e2e_latency")
	g.mReadLat = r.Histogram("gateway.read_latency")
	mon := g.monitor
	r.OnSnapshot(func(s *metrics.Snapshot) {
		s.SetGauge("gateway.exec_wait_p95_ns", int64(mon.P95()))
	})
	g.wg.Add(1)
	go g.acceptLoop()
	return g, nil
}

// now reads the gateway's monotonic clock.
func (g *Gateway) now() time.Duration { return time.Since(g.start) }

// Addr returns the bound listen address (resolves ":0" configs).
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Close stops the listener, severs every connection, and waits for the
// per-connection goroutines and the overload monitor to drain.
func (g *Gateway) Close() {
	g.once.Do(func() {
		close(g.closing)
		g.ln.Close()
		g.connMu.Lock()
		for c := range g.conns {
			c.close()
		}
		g.connMu.Unlock()
	})
	g.wg.Wait()
	g.monitor.Close()
}

func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		c, err := g.ln.Accept()
		if err != nil {
			select {
			case <-g.closing:
				return
			default:
			}
			return
		}
		gc := &gwConn{c: c, limit: g.cfg.WriteQueue * writeQueueUnit,
			wake: make(chan struct{}, 1), wbuf: types.GetBuf(connBufSize)}
		g.connMu.Lock()
		g.conns[gc] = struct{}{}
		g.connMu.Unlock()
		g.mConnected.Add(1)
		g.wg.Add(2)
		go g.readLoop(gc)
		go g.writeLoop(gc)
	}
}

func (g *Gateway) dropConn(gc *gwConn) {
	gc.close()
	g.connMu.Lock()
	if _, ok := g.conns[gc]; ok {
		delete(g.conns, gc)
		g.mConnected.Add(-1)
	}
	g.connMu.Unlock()
}

// writeLoop writes the connection's buffered frames: each wake-up it swaps
// the write buffer for its empty spare until nothing is left. A failed write
// closes the connection.
func (g *Gateway) writeLoop(gc *gwConn) {
	defer g.wg.Done()
	spare := types.GetBuf(connBufSize)
	defer func() { types.PutBuf(spare) }()
	for range gc.wake {
		for {
			gc.mu.Lock()
			if gc.closed || len(gc.wbuf) == 0 {
				gc.mu.Unlock()
				break
			}
			out := gc.wbuf
			gc.wbuf = spare[:0]
			gc.mu.Unlock()
			_, err := gc.c.Write(out)
			if cap(out) > connBufSize {
				types.PutBuf(out)
				out = types.GetBuf(connBufSize)
			}
			spare = out
			if err != nil {
				gc.close()
				return
			}
		}
	}
}

// readLoop parses client frames off the connection. Protocol errors and
// deadline expiry are terminal, mirroring the peer transport's contract.
func (g *Gateway) readLoop(gc *gwConn) {
	defer g.wg.Done()
	defer g.dropConn(gc)
	fr := transport.NewFrameReader(gc.c, nil)
	fr.SetMaxFrame(g.cfg.MaxFrame)
	defer fr.Close()
	for {
		// Absolute deadline per frame: however many Read syscalls the frame
		// takes, its bytes must land within ReadTimeout — a trickling
		// slow-loris sender is cut off, not accommodated.
		gc.c.SetReadDeadline(time.Now().Add(g.cfg.ReadTimeout))
		body, err := fr.Next()
		if err != nil {
			return
		}
		msg, perr := parseClientMsg(body)
		if perr != nil {
			g.mProtoErr.Inc()
			return
		}
		switch msg.kind {
		case MsgHello:
			gc.send(ServerEvent{Kind: MsgHelloAck, Version: ProtoVersion,
				Fc: uint64(g.cfg.Read.FaultBound), MaxTx: uint64(g.cfg.MaxTx)})
		case MsgSubmit:
			g.handleSubmit(gc, msg)
		case MsgRead:
			g.mReads.Inc()
			// Reads are admitted like submissions: the key bounded, the
			// client's bucket charged, the connection's reads in flight capped.
			var op *readOp
			if len(msg.payload) <= g.cfg.MaxTx && g.admit.TryAdmit(msg.client, time.Now().UnixNano()) {
				op = gc.getReadOp(g)
			}
			if op == nil {
				gc.send(ServerEvent{Kind: MsgReadErr, Client: msg.client, Seq: msg.seq, Reason: ReadOverload})
				continue
			}
			// Aggregation can block up to Read.Timeout; keep the reader
			// loop (and this client's submissions) flowing meanwhile.
			op.client, op.seq, op.key = msg.client, msg.seq, append(op.key[:0], msg.payload...)
			op.refs.Store(1)
			g.wg.Add(1)
			go op.serve()
		}
	}
}

// handleSubmit runs the full admission ladder on one submission. Order
// matters: cheap shape checks, then the per-client bucket (so one client's
// flood spends its own budget before touching global state), then the global
// overload signals. An admitted transaction goes to Submit straight from the
// connection's read buffer: the mempool makes the copy the block and the DAG
// will share, so admission itself allocates nothing.
func (g *Gateway) handleSubmit(gc *gwConn, msg clientMsg) {
	g.mSubmitted.Inc()
	reply := ServerEvent{Kind: MsgReject, Client: msg.client, Seq: msg.seq}
	switch {
	case len(msg.payload) == 0:
		g.mRejMalform.Inc()
		reply.Reason = RejectMalformed
	case len(msg.payload) > g.cfg.MaxTx:
		g.mRejLarge.Inc()
		reply.Reason = RejectTooLarge
	case !g.admit.TryAdmit(msg.client, time.Now().UnixNano()):
		g.mRejRate.Inc()
		reply.Reason = RejectRateLimit
	case g.cfg.Depth() > g.cfg.Limits.MempoolHigh ||
		g.mPending.Load() >= maxPending ||
		g.monitor.Overloaded():
		g.mRejLoad.Inc()
		reply.Reason = RejectOverload
	default:
		g.registerPending(msg.payload, pendingSub{conn: gc, client: msg.client, seq: msg.seq, at: g.now()})
		g.cfg.Submit(msg.payload)
		g.mAdmitted.Inc()
		reply.Kind = MsgAck
	}
	gc.send(reply)
}

// handle serves the read op was started for, on its own goroutine. The
// answer is in the connection's buffer before the operation is let go.
func (op *readOp) handle() {
	g := op.g
	defer g.wg.Done()
	defer op.unref()
	start := time.Now()
	res := op.aggregate()
	g.mReadLat.Observe(time.Since(start))
	ev := ServerEvent{Kind: MsgValue, Client: op.client, Seq: op.seq, Quorum: byte(res.quorum)}
	switch {
	case res.errCode != 0:
		ev.Kind, ev.Reason = MsgReadErr, res.errCode
	case res.found:
		ev.Value = res.value
	}
	op.conn.send(ev)
}

func (g *Gateway) registerPending(tx []byte, sub pendingSub) {
	d := sha256.Sum256(tx)
	sh := &g.pending[d[0]&(pendingShards-1)]
	sh.mu.Lock()
	e, dup := sh.subs[d]
	switch {
	case !dup:
		e.first = sub
	case e.more == nil:
		e.more = &[]pendingSub{sub}
	default:
		*e.more = append(*e.more, sub)
	}
	sh.subs[d] = e
	sh.mu.Unlock()
	g.mPending.Add(1)
}

// NotifyCommitted is the host's bridge from the consensus commit callback:
// for every transaction in a committed block, the gateway resolves waiting
// submitters by digest, appends MsgCommit frames to their connections' write
// buffers, and records end-to-end latency (client submit seen → commit
// notified). Safe to call from the pipeline's delivery goroutine: it never
// blocks on a client (a backlog over the bound drops).
func (g *Gateway) NotifyCommitted(round uint64, txs [][]byte) {
	now := g.now()
	var held *gwConn
	for _, tx := range txs {
		d := sha256.Sum256(tx)
		sh := &g.pending[d[0]&(pendingShards-1)]
		sh.mu.Lock()
		e, ok := sh.subs[d]
		if ok {
			delete(sh.subs, d)
		}
		sh.mu.Unlock()
		if !ok {
			continue // generator traffic or a tx admitted by another gateway
		}
		g.mPending.Add(-1)
		held = g.notify(held, &e.first, round, now)
		if e.more != nil {
			g.mPending.Add(-int64(len(*e.more)))
			for i := range *e.more {
				held = g.notify(held, &(*e.more)[i], round, now)
			}
		}
	}
	if held != nil {
		held.mu.Unlock()
	}
}

// notify appends sub's COMMIT frame to its connection and returns that
// connection with its lock still held, releasing held first if it is another:
// a block's frames for one connection are one critical section and wake its
// writer once.
func (g *Gateway) notify(held *gwConn, sub *pendingSub, round uint64, now time.Duration) *gwConn {
	if sub.conn != held {
		if held != nil {
			held.mu.Unlock()
		}
		held = sub.conn
		held.mu.Lock()
	}
	lat := now - sub.at
	g.mE2E.Observe(lat)
	if !held.sendLocked(&ServerEvent{Kind: MsgCommit, Client: sub.client, Seq: sub.seq, Round: round, Latency: uint64(lat)}) {
		g.mSlowDrops.Inc()
	}
	return held
}

// PendingCount reports transactions awaiting commit notification (tests).
func (g *Gateway) PendingCount() int { return int(g.mPending.Load()) }
