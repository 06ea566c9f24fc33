package gateway

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"clanbft/internal/metrics"
)

// testHost is a gateway wired to an in-memory mempool stand-in: submitted
// transactions land in a slice, and the test commits them by calling
// NotifyCommitted directly.
type testHost struct {
	mu   sync.Mutex
	txs  [][]byte
	gw   *Gateway
	reg  *metrics.Registry
	t    *testing.T
	conf Config
}

func newTestHost(t *testing.T, mutate func(*Config)) *testHost {
	t.Helper()
	h := &testHost{reg: metrics.New(), t: t}
	cfg := Config{
		Addr: "127.0.0.1:0",
		Submit: func(tx []byte) {
			h.mu.Lock()
			h.txs = append(h.txs, tx)
			h.mu.Unlock()
		},
		Depth: func() int {
			h.mu.Lock()
			defer h.mu.Unlock()
			return len(h.txs)
		},
		Metrics: h.reg,
		Limits:  Limits{ClientRate: 1e6, SamplePeriod: 10 * time.Millisecond},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h.gw = gw
	h.conf = cfg
	t.Cleanup(gw.Close)
	return h
}

// commitAll commits every submitted transaction at the given round.
func (h *testHost) commitAll(round uint64) {
	h.mu.Lock()
	txs := h.txs
	h.txs = nil
	h.mu.Unlock()
	h.gw.NotifyCommitted(round, txs)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// collector gathers server events by kind.
type collector struct {
	mu  sync.Mutex
	evs []ServerEvent
}

func (c *collector) add(ev ServerEvent) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *collector) count(kind byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ev := range c.evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func (c *collector) find(kind byte, client, seq uint64) (ServerEvent, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ev := range c.evs {
		if ev.Kind == kind && ev.Client == client && ev.Seq == seq {
			return ev, true
		}
	}
	return ServerEvent{}, false
}

func TestSubmitAckCommitRoundTrip(t *testing.T) {
	h := newTestHost(t, nil)
	var evs collector
	cl, err := Dial(h.gw.Addr(), evs.add)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	for seq := uint64(0); seq < 10; seq++ {
		if err := cl.Submit(7, seq, []byte(fmt.Sprintf("tx-%d", seq))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	waitFor(t, "10 acks", func() bool { return evs.count(MsgAck) == 10 })
	if got := h.gw.PendingCount(); got != 10 {
		t.Fatalf("pending = %d, want 10", got)
	}
	h.commitAll(42)
	waitFor(t, "10 commits", func() bool { return evs.count(MsgCommit) == 10 })
	if ev, ok := evs.find(MsgCommit, 7, 3); !ok || ev.Round != 42 {
		t.Fatalf("commit for (7,3): ok=%v ev=%+v", ok, ev)
	}
	if got := h.gw.PendingCount(); got != 0 {
		t.Fatalf("pending after commit = %d, want 0", got)
	}
	snap := h.reg.Snapshot()
	if snap.Counter("gateway.admitted") != 10 || snap.Hist("gateway.e2e_latency").Count != 10 {
		t.Fatalf("metrics: admitted=%d e2e.count=%d",
			snap.Counter("gateway.admitted"), snap.Hist("gateway.e2e_latency").Count)
	}
}

func TestDuplicateTxNotifiesAllSubmitters(t *testing.T) {
	h := newTestHost(t, nil)
	var evs collector
	cl, err := Dial(h.gw.Addr(), evs.add)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	// Three logical clients submit byte-identical transactions (the inline
	// subscriber, then the list's first and second); one commit must
	// notify all of them.
	if err := cl.Submit(1, 0, []byte("same-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Submit(2, 0, []byte("same-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Submit(3, 0, []byte("same-bytes")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "3 acks", func() bool { return evs.count(MsgAck) == 3 })
	h.gw.NotifyCommitted(5, [][]byte{[]byte("same-bytes")})
	waitFor(t, "3 commits", func() bool { return evs.count(MsgCommit) == 3 })
	if got := h.gw.PendingCount(); got != 0 {
		t.Fatalf("pending after commit = %d, want 0", got)
	}
}

func TestRejectRateLimit(t *testing.T) {
	h := newTestHost(t, func(c *Config) {
		c.Limits = Limits{ClientRate: 1, ClientBurst: 3}
	})
	var evs collector
	cl, err := Dial(h.gw.Addr(), evs.add)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for seq := uint64(0); seq < 10; seq++ {
		if err := cl.Submit(9, seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "verdicts", func() bool { return evs.count(MsgAck)+evs.count(MsgReject) == 10 })
	if got := evs.count(MsgAck); got != 3 {
		t.Fatalf("acks = %d, want 3 (burst)", got)
	}
	if ev, ok := evs.find(MsgReject, 9, 3); !ok || ev.Reason != RejectRateLimit {
		t.Fatalf("reject (9,3): ok=%v reason=%d", ok, ev.Reason)
	}
	// A different client still has a full bucket.
	if err := cl.Submit(10, 0, []byte("other")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "other client ack", func() bool {
		_, ok := evs.find(MsgAck, 10, 0)
		return ok
	})
}

func TestRejectOverloadOnMempoolDepth(t *testing.T) {
	depth := 0
	var mu sync.Mutex
	h := newTestHost(t, func(c *Config) {
		c.Depth = func() int { mu.Lock(); defer mu.Unlock(); return depth }
		c.Limits = Limits{ClientRate: 1e6, MempoolHigh: 100}
	})
	var evs collector
	cl, err := Dial(h.gw.Addr(), evs.add)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Submit(1, 0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ack under watermark", func() bool { return evs.count(MsgAck) == 1 })
	mu.Lock()
	depth = 101
	mu.Unlock()
	if err := cl.Submit(1, 1, []byte("shed")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "overload reject", func() bool {
		ev, ok := evs.find(MsgReject, 1, 1)
		return ok && ev.Reason == RejectOverload
	})
	mu.Lock()
	depth = 0
	mu.Unlock()
	if err := cl.Submit(1, 2, []byte("recovered")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ack after recovery", func() bool {
		_, ok := evs.find(MsgAck, 1, 2)
		return ok
	})
}

func TestRejectTooLargeAndMalformed(t *testing.T) {
	h := newTestHost(t, func(c *Config) { c.MaxTx = 64 })
	var evs collector
	cl, err := Dial(h.gw.Addr(), evs.add)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Submit(1, 0, make([]byte, 65)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Submit(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rejects", func() bool {
		a, okA := evs.find(MsgReject, 1, 0)
		b, okB := evs.find(MsgReject, 1, 1)
		return okA && okB && a.Reason == RejectTooLarge && b.Reason == RejectMalformed
	})
}

// --- protocol corruption suite -------------------------------------------

// rawDial opens a bare TCP connection to the gateway.
func rawDial(t *testing.T, gw *Gateway) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", gw.Addr(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitClosed asserts the server closes its side within the deadline.
func waitClosed(t *testing.T, c net.Conn, within time.Duration) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(within))
	buf := make([]byte, 256)
	for {
		if _, err := c.Read(buf); err != nil {
			if err == io.EOF {
				return
			}
			if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
				t.Fatalf("server did not close connection within %v", within)
			}
			return // RST et al. also mean closed
		}
	}
}

func connectedCount(h *testHost) int64 {
	return h.reg.Snapshot().Gauge("gateway.connected")
}

func TestCorruptionTruncatedFrame(t *testing.T) {
	h := newTestHost(t, nil)
	c := rawDial(t, h.gw)
	// Length prefix promises 100 bytes; deliver 10 and disconnect.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	c.Write(hdr[:])
	c.Write(make([]byte, 10))
	c.Close()
	waitFor(t, "conn reaped", func() bool { return connectedCount(h) == 0 })
	// The server must keep serving new clients afterwards.
	var evs collector
	cl, err := Dial(h.gw.Addr(), evs.add)
	if err != nil {
		t.Fatalf("Dial after truncated frame: %v", err)
	}
	defer cl.Close()
	if err := cl.Submit(1, 0, []byte("still-alive")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ack", func() bool { return evs.count(MsgAck) == 1 })
}

func TestCorruptionOversizedLengthPrefix(t *testing.T) {
	h := newTestHost(t, func(c *Config) { c.MaxFrame = 1024 })
	c := rawDial(t, h.gw)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The server must refuse to buffer and sever immediately — well before
	// any read deadline.
	waitClosed(t, c, 3*time.Second)
	waitFor(t, "conn reaped", func() bool { return connectedCount(h) == 0 })
}

func TestCorruptionZeroLengthPrefix(t *testing.T) {
	h := newTestHost(t, nil)
	c := rawDial(t, h.gw)
	c.Write([]byte{0, 0, 0, 0})
	waitClosed(t, c, 3*time.Second)
	waitFor(t, "conn reaped", func() bool { return connectedCount(h) == 0 })
}

func TestCorruptionUnknownMessageType(t *testing.T) {
	h := newTestHost(t, nil)
	c := rawDial(t, h.gw)
	c.Write([]byte{0, 0, 0, 1, 0x7f})
	waitClosed(t, c, 3*time.Second)
	waitFor(t, "protocol error counted", func() bool {
		return h.reg.Snapshot().Counter("gateway.protocol_errors") == 1
	})
}

func TestCorruptionSlowLoris(t *testing.T) {
	h := newTestHost(t, func(c *Config) { c.ReadTimeout = 300 * time.Millisecond })
	c := rawDial(t, h.gw)
	// Promise a 64-byte frame, then trickle one byte per 50ms: the frame
	// never completes within ReadTimeout and the server must cut us off
	// rather than hold the reader goroutine hostage.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 64)
	c.Write(hdr[:])
	start := time.Now()
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		waitClosed(t, c, 5*time.Second)
	}()
	for i := 0; i < 100; i++ {
		select {
		case <-closed:
			i = 100
		default:
			c.Write([]byte{0})
			time.Sleep(50 * time.Millisecond)
		}
	}
	<-closed
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("slow-loris survived %v (ReadTimeout 300ms)", elapsed)
	}
	waitFor(t, "conn reaped", func() bool { return connectedCount(h) == 0 })
}

func TestCorruptionMidStreamDisconnect(t *testing.T) {
	h := newTestHost(t, nil)
	// A well-formed submission followed by an abrupt disconnect mid-frame:
	// the first transaction must be admitted, the half frame discarded.
	c := rawDial(t, h.gw)
	body := append([]byte{MsgSubmit}, binary.AppendUvarint(binary.AppendUvarint(nil, 3), 0)...)
	body = append(body, []byte("good-tx")...)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	c.Write(hdr[:])
	c.Write(body)
	waitFor(t, "first tx admitted", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.txs) == 1
	})
	binary.BigEndian.PutUint32(hdr[:], 500)
	c.Write(hdr[:])
	c.Write(make([]byte, 250))
	c.Close()
	waitFor(t, "conn reaped", func() bool { return connectedCount(h) == 0 })
	h.mu.Lock()
	n := len(h.txs)
	h.mu.Unlock()
	if n != 1 {
		t.Fatalf("txs = %d, want 1 (half frame must not admit)", n)
	}
}
