package gateway

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// commitWatcher is a client event handler that counts ACKs and COMMITs and
// checks COMMITs arrive in seq order.
type commitWatcher struct {
	acks, commits atomic.Int64
	nextSeq       uint64 // reader goroutine only
	disorder      atomic.Int64
}

func (w *commitWatcher) on(ev ServerEvent) {
	switch ev.Kind {
	case MsgAck:
		w.acks.Add(1)
	case MsgCommit:
		if ev.Seq != w.nextSeq {
			w.disorder.Add(1)
		}
		w.nextSeq = ev.Seq + 1
		w.commits.Add(1)
	}
}

// TestCommitBurstLosesNoNotification: a client with 5 000 writes pending whose
// commits land in fifty back-to-back blocks gets every COMMIT, in order, at
// the default WriteQueue. A queue of one buffer per frame shed most of them:
// fifty NotifyCommitted calls outrun any reader by far more than 1 024 frames.
func TestCommitBurstLosesNoNotification(t *testing.T) {
	const total, perBlock = 5000, 100
	h := newTestHost(t, nil)
	var w commitWatcher
	cl, err := Dial(h.gw.Addr(), w.on)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for seq := uint64(0); seq < total; seq++ {
		if err := cl.Submit(1, seq, []byte(fmt.Sprintf("burst-%d", seq))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	waitFor(t, "every ACK", func() bool { return w.acks.Load() == total })
	txs := h.drain()
	for b := 0; b*perBlock < total; b++ {
		h.gw.NotifyCommitted(uint64(b+1), txs[b*perBlock:(b+1)*perBlock])
	}
	waitFor(t, "every COMMIT", func() bool { return w.commits.Load() == total })
	if n := w.disorder.Load(); n != 0 {
		t.Fatalf("%d COMMITs arrived out of order", n)
	}
	if drops := h.reg.Snapshot().Counter("gateway.slow_drops"); drops != 0 {
		t.Fatalf("gateway.slow_drops = %d, want 0", drops)
	}
	if got := h.gw.PendingCount(); got != 0 {
		t.Fatalf("pending after the burst = %d, want 0", got)
	}
}

// TestBacklogBoundedInBytes: a connection's unwritten backlog is bounded in
// bytes (WriteQueue x 512); what does not fit is dropped and counted, the
// notifier never blocks, and the connection keeps working.
func TestBacklogBoundedInBytes(t *testing.T) {
	const total = 400
	h := newTestHost(t, func(c *Config) { c.WriteQueue = 1 })
	var w commitWatcher
	cl, err := Dial(h.gw.Addr(), func(ev ServerEvent) {
		if ev.Kind == MsgAck {
			w.acks.Add(1)
		} else if ev.Kind == MsgCommit {
			w.commits.Add(1)
		}
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for seq := uint64(0); seq < total; seq++ {
		if err := cl.Submit(1, seq, []byte(fmt.Sprintf("bound-%d", seq))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		// One at a time: 400 ACKs at once would not fit 512 bytes either.
		waitFor(t, "ACK", func() bool { return w.acks.Load() == int64(seq)+1 })
	}
	done := make(chan struct{})
	go func() {
		h.commitAll(9) // one block: its frames are one critical section
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("NotifyCommitted blocked on a full backlog")
	}
	drops := int64(h.reg.Snapshot().Counter("gateway.slow_drops"))
	if drops == 0 || drops >= total {
		t.Fatalf("gateway.slow_drops = %d of %d frames, want some but not all", drops, total)
	}
	waitFor(t, "the COMMITs that fit", func() bool { return w.commits.Load() == total-drops })
	if err := cl.Submit(1, total, []byte("after")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ACK after the drop", func() bool { return w.acks.Load() == total+1 })
}

// TestAdmitAckCommitAllocs: admission hands the payload to the mempool, whose
// copy lands in a shared chunk, and the pending table, the ACK and the COMMIT
// cost nothing per transaction. The whole process (this client included)
// reads ~0.02 per transaction; half an allocation fails as soon as any
// per-transaction allocation comes back.
func TestAdmitAckCommitAllocs(t *testing.T) {
	const batch, batches = 500, 10
	h := newTestHost(t, nil)
	var w commitWatcher
	cl, err := Dial(h.gw.Addr(), w.on)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	tx := make([]byte, 140)
	seq := uint64(0)
	round := func() {
		for i := 0; i < batch; i++ {
			tx[0], tx[1], tx[2] = byte(seq), byte(seq>>8), byte(seq>>16)
			if err := cl.Submit(seq%64, seq, tx); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			seq++
		}
		waitFor(t, "ACKs", func() bool { return w.acks.Load() == int64(seq) })
		h.commitAll(seq)
		waitFor(t, "COMMITs", func() bool { return w.commits.Load() == int64(seq) })
	}
	for i := 0; i < 4; i++ {
		round() // buckets, pending-table buckets and write buffers at size
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perTx := float64(after.Mallocs-before.Mallocs) / (batch * batches)
	t.Logf("admit -> ACK -> COMMIT: %.2f allocations per transaction", perTx)
	if perTx > 0.5 && !raceEnabled {
		t.Fatalf("admit -> ACK -> COMMIT allocates %.2f per transaction, want <= 0.5", perTx)
	}
	if drops := h.reg.Snapshot().Counter("gateway.slow_drops"); drops != 0 {
		t.Fatalf("gateway.slow_drops = %d", drops)
	}
}

// TestWriteFailureClosesConnection: a client that vanishes mid-stream costs
// the gateway its connection, not a goroutine or a buffer.
func TestWriteFailureClosesConnection(t *testing.T) {
	h := newTestHost(t, nil)
	c, err := net.Dial("tcp", h.gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "connection registered", func() bool { return h.reg.Snapshot().Gauge("gateway.connected") == 1 })
	c.Close()
	waitFor(t, "connection dropped", func() bool { return h.reg.Snapshot().Gauge("gateway.connected") == 0 })
}

// scriptReader answers successive polls from a script; the last entry repeats.
// With after set, its first answer waits until that reader's has had time to
// reach the aggregator.
type scriptReader struct {
	script []readResp
	after  *scriptReader
	calls  atomic.Int64
}

func (s *scriptReader) ReadKey(dst, _ []byte) ([]byte, uint64, bool) {
	i := int(s.calls.Add(1)) - 1
	if s.after != nil && i == 0 {
		for s.after.calls.Load() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(20 * time.Millisecond) // the other's reply is a channel send away
	}
	if i >= len(s.script) {
		i = len(s.script) - 1
	}
	r := s.script[i]
	return append(dst, r.value...), r.version, r.ok
}

func present(val string, ver uint64) readResp {
	return readResp{value: []byte(val), version: ver, ok: true}
}

var absentResp = readResp{}

// TestReadStraddlingCommitConverges: a write in flight splits the honest
// responders across the commit — with a third that is no help, no group has
// f_c+1. The laggard is asked again and the read answers at the new version.
func TestReadStraddlingCommitConverges(t *testing.T) {
	ahead := &scriptReader{script: []readResp{present("new", 8)}}
	behind := &scriptReader{script: []readResp{present("old", 7), present("old", 7), present("new", 8)}}
	byz := &scriptReader{script: []readResp{present("junk", 3)}}
	res := aggregateRead(ReadConfig{Responders: []StateReader{ahead, behind, byz}, FaultBound: 1}, []byte("k"))
	if res.errCode != 0 || !res.found || string(res.value) != "new" || res.version != 8 || res.quorum != 2 {
		t.Fatalf("res = %+v, want new@8 from 2", res)
	}
	if ahead.calls.Load() != 1 {
		t.Fatalf("the responder at the highest version was polled %d times, want once", ahead.calls.Load())
	}
	if behind.calls.Load() != 3 {
		t.Fatalf("the laggard was polled %d times, want 3", behind.calls.Load())
	}
}

// TestReadPermanentSplitEndsAtDeadline: responders that never agree are
// re-polled until Timeout, then the read reports ReadNoQuorum.
func TestReadPermanentSplitEndsAtDeadline(t *testing.T) {
	a := &scriptReader{script: []readResp{present("a", 3)}}
	b := &scriptReader{script: []readResp{present("b", 2)}}
	c := &scriptReader{script: []readResp{present("c", 1)}}
	const timeout = 60 * time.Millisecond
	start := time.Now()
	res := aggregateRead(ReadConfig{Responders: []StateReader{a, b, c}, FaultBound: 1, Timeout: timeout}, []byte("k"))
	if res.errCode != ReadNoQuorum {
		t.Fatalf("errCode = %d, want ReadNoQuorum", res.errCode)
	}
	if took := time.Since(start); took < timeout || took > 10*timeout {
		t.Fatalf("gave up after %v, want at the %v deadline", took, timeout)
	}
	if a.calls.Load() != 1 || b.calls.Load() < 3 || c.calls.Load() < 3 {
		t.Fatalf("polls a=%d b=%d c=%d, want the two below the top re-polled", a.calls.Load(), b.calls.Load(), c.calls.Load())
	}
}

// TestReadSameVersionSplitAnswersAtOnce: different bytes at one version is a
// split no re-poll can heal; the read does not wait for the deadline.
func TestReadSameVersionSplitAnswersAtOnce(t *testing.T) {
	rs := []StateReader{
		&scriptReader{script: []readResp{present("a", 5)}},
		&scriptReader{script: []readResp{present("b", 5)}},
		&scriptReader{script: []readResp{present("c", 5)}},
	}
	start := time.Now()
	res := aggregateRead(ReadConfig{Responders: rs, FaultBound: 1, Timeout: 5 * time.Second}, []byte("k"))
	if res.errCode != ReadNoQuorum || time.Since(start) > time.Second {
		t.Fatalf("res = %+v after %v, want ReadNoQuorum at once", res, time.Since(start))
	}
}

// TestReadAbsentNeverOutvotesPresent: f_c+1 "absent" answers — a Byzantine
// responder plus an honest one that has not executed the write yet — must not
// answer for a key a responder has reported present.
func TestReadAbsentNeverOutvotesPresent(t *testing.T) {
	t.Run("laggard catches up", func(t *testing.T) {
		ahead := &scriptReader{script: []readResp{present("v", 4)}}
		byz := &scriptReader{script: []readResp{absentResp}, after: ahead}
		behind := &scriptReader{script: []readResp{absentResp, present("v", 4)}, after: ahead}
		res := aggregateRead(ReadConfig{Responders: []StateReader{byz, behind, ahead}, FaultBound: 1}, []byte("k"))
		if res.errCode != 0 || !res.found || string(res.value) != "v" || res.version != 4 {
			t.Fatalf("res = %+v, want v@4", res)
		}
	})
	t.Run("laggard never does", func(t *testing.T) {
		ahead := &scriptReader{script: []readResp{present("v", 4)}}
		byz := &scriptReader{script: []readResp{absentResp}, after: ahead}
		behind := &scriptReader{script: []readResp{absentResp}, after: ahead}
		res := aggregateRead(ReadConfig{Responders: []StateReader{byz, behind, ahead}, FaultBound: 1,
			Timeout: 40 * time.Millisecond}, []byte("k"))
		if res.errCode != ReadNoQuorum {
			t.Fatalf("res = %+v, want ReadNoQuorum: absent must not win while a responder holds the key", res)
		}
	})
}
