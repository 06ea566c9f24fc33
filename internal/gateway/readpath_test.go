package gateway

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// readWatcher counts read outcomes per (client, seq).
type readWatcher struct {
	mu      sync.Mutex
	answers map[uint64]int // seq -> VALUE and READERR frames seen
	values  atomic.Int64
	errs    [4]atomic.Int64 // by reason
	acked   chan uint64     // seq of every ACK
	wrong   atomic.Value    // first unexpected value, as a string
	want    []byte          // nil: any value will do
}

func (w *readWatcher) on(ev ServerEvent) {
	switch ev.Kind {
	case MsgValue, MsgReadErr:
		if w.answers != nil {
			w.mu.Lock()
			w.answers[ev.Seq]++
			w.mu.Unlock()
		}
		if ev.Kind == MsgReadErr {
			w.errs[ev.Reason].Add(1)
			return
		}
		if w.want != nil && !bytes.Equal(ev.Value, w.want) {
			w.wrong.CompareAndSwap(nil, fmt.Sprintf("seq %d: %q", ev.Seq, ev.Value))
		}
		w.values.Add(1)
	case MsgAck:
		if w.acked != nil {
			w.acked <- ev.Seq
		}
	}
}

// copyReader answers every key by appending val to dst, as an executor's
// GetVersioned does.
func copyReader(val []byte, delay time.Duration) StateReader {
	return StateReaderFunc(func(dst, _ []byte) ([]byte, uint64, bool) {
		if delay > 0 {
			time.Sleep(delay)
		}
		return append(dst, val...), 1, true
	})
}

// TestReadPathAllocs: a read's channel, answer slots and buffers, deadline
// timer and the functions it starts belong to a recycled operation, the
// responders append into its buffers, and the client copies the VALUE into a
// shared chunk, so a read costs no allocation of its own: the whole process
// stays within half an allocation per read, a 2 KiB value's sixteenth of a
// chunk included.
func TestReadPathAllocs(t *testing.T) {
	const batch, batches, responders = 100, 10, 3
	val := bytes.Repeat([]byte{7}, 2048)
	h := newTestHost(t, func(c *Config) {
		c.Read = ReadConfig{FaultBound: 1}
		for i := 0; i < responders; i++ {
			c.Read.Responders = append(c.Read.Responders, copyReader(val, 0))
		}
	})
	w := &readWatcher{want: val}
	cl, err := Dial(h.gw.Addr(), w.on)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	seq := uint64(0)
	round := func() {
		for i := 0; i < batch; i++ {
			if err := cl.Read(seq%8, seq, []byte("key")); err != nil {
				t.Fatalf("Read: %v", err)
			}
			seq++
		}
		waitFor(t, "VALUEs", func() bool { return w.values.Load() == int64(seq) })
	}
	for i := 0; i < 30; i++ {
		// Operations made, buckets and write buffers at size, and the
		// goroutines and the runtime's wait records at their peak count.
		round()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.Mallocs-before.Mallocs) / (batch * batches)
	t.Logf("READ -> VALUE: %.2f allocations per read with %d responders", perRead, responders)
	if perRead > 0.5 && !raceEnabled {
		t.Fatalf("a read allocates %.2f, want <= 0.5", perRead)
	}
	if bad := w.wrong.Load(); bad != nil {
		t.Fatalf("wrong value: %v", bad)
	}
}

// keyedReader answers per key: a value, a version and a delay.
type keyedReader map[string]struct {
	val   string
	ver   uint64
	delay time.Duration
}

func (r keyedReader) ReadKey(dst, key []byte) ([]byte, uint64, bool) {
	a := r[string(key)]
	time.Sleep(a.delay)
	return append(dst, a.val...), a.ver, true
}

// TestReadOpNotRecycledWhileAPollIsInFlight: a read of "a" reaches its quorum
// on two fast answers while the third responder is still working; its answer
// — LATE@7 — comes 50 ms later. Meanwhile a hundred reads of "b" run, for
// which a Byzantine responder also says LATE@7 and the honest quorum is the
// other two, one of them the slow responder. Were the first read's operation
// recycled before its last poll answered, that answer would reach a read of
// "b" as the slow responder's and complete the wrong quorum.
func TestReadOpNotRecycledWhileAPollIsInFlight(t *testing.T) {
	type ans = struct {
		val   string
		ver   uint64
		delay time.Duration
	}
	h := newTestHost(t, func(c *Config) {
		c.Read = ReadConfig{FaultBound: 1, Responders: []StateReader{
			keyedReader{"a": ans{"A", 1, 0}, "b": ans{"LATE", 7, 0}},
			keyedReader{"a": ans{"A", 1, 0}, "b": ans{"B", 2, 0}},
			keyedReader{"a": ans{"LATE", 7, 50 * time.Millisecond}, "b": ans{"B", 2, time.Millisecond}},
		}}
	})
	w := &readWatcher{}
	var got sync.Map // seq -> value
	cl, err := Dial(h.gw.Addr(), func(ev ServerEvent) {
		if ev.Kind == MsgValue {
			got.Store(ev.Seq, string(ev.Value))
		}
		w.on(ev)
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Read(1, 0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the read of a", func() bool { return w.values.Load() == 1 })
	start := time.Now()
	for seq := uint64(1); seq <= 100; seq++ {
		if err := cl.Read(1, seq, []byte("b")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a read of b", func() bool { return w.values.Load() == int64(seq)+1 })
	}
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Fatalf("the reads of b were over in %v, before the late answer came", took)
	}
	if v, _ := got.Load(uint64(0)); v != "A" {
		t.Fatalf("read of a = %q, want A", v)
	}
	for seq := uint64(1); seq <= 100; seq++ {
		if v, _ := got.Load(seq); v != "B" {
			t.Fatalf("read %d of b = %q, want B: it saw another read's answer", seq, v)
		}
	}
	// Two operations did it all: the one held by the slow poll, and one more.
	var made int
	waitFor(t, "both operations idle", func() bool {
		h.gw.connMu.Lock()
		defer h.gw.connMu.Unlock()
		for gc := range h.gw.conns {
			gc.mu.Lock()
			made = gc.readsMade
			idle := len(gc.reads)
			gc.mu.Unlock()
			return idle == made
		}
		return false
	})
	if made != 2 {
		t.Fatalf("the connection made %d read operations, want 2", made)
	}
}

// pollReader answers a key's first poll with first and every later one with
// later. before, when set, runs ahead of a later answer with the buffer that
// answer will be appended to.
type pollReader struct {
	first, later readResp
	before       func(dst, key []byte)
	mu           sync.Mutex
	polls        map[string]int
}

func (r *pollReader) ReadKey(dst, key []byte) ([]byte, uint64, bool) {
	r.mu.Lock()
	r.polls[string(key)]++
	k := r.polls[string(key)]
	r.mu.Unlock()
	a := r.first
	if k > 1 {
		a = r.later
		if r.before != nil {
			r.before(dst, key)
		}
	}
	return append(dst, a.value...), a.version, a.ok
}

// TestReadBufferNotComparedInFlight: responder 0 says X@2, responder 1 Y@1
// and responder 2 that the key is absent, so no two agree and both laggards
// are polled again. Responder 1's second poll scribbles over the whole array
// of the buffer it was handed, again and again, until the client has the
// read's answer; responder 2's, once that has begun, says Y@1. Responder 1's
// first answer still counts while it is polled again, so every read is Y@1
// from two — and the buffer being scribbled on is never the one compared:
// were it, the read would see torn bytes and answer something else or not in
// time (and -race would report the comparison). Reads run one after another
// on recycled operations, so the buffers are reused.
func TestReadBufferNotComparedInFlight(t *testing.T) {
	const reads, size = 30, 2048
	x, y := bytes.Repeat([]byte{'X'}, size), bytes.Repeat([]byte{'Y'}, size)
	var answered, scribbling atomic.Int64 // reads answered; the read being scribbled on, plus one
	var bad atomic.Value
	// until waits up to a second for cond; it reports on the test's own
	// goroutine, as a poll may outlive the test.
	until := func(what string, cond func() bool) {
		for deadline := time.Now().Add(time.Second); !cond(); {
			if time.Now().After(deadline) {
				bad.CompareAndSwap(nil, "timeout waiting for "+what)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	seqOf := func(key []byte) int64 { return int64(key[0])<<8 | int64(key[1]) }
	scribbler := &pollReader{first: present(string(y), 1), later: present(string(x), 2), polls: map[string]int{}}
	scribbler.before = func(dst, key []byte) {
		seq, buf := seqOf(key), dst[:cap(dst)]
		scribbling.Store(seq + 1)
		until("the read's answer", func() bool {
			for i := range buf {
				buf[i] = byte(i)
			}
			return answered.Load() > seq
		})
	}
	lagging := &pollReader{later: present(string(y), 1), polls: map[string]int{}}
	lagging.before = func(_, key []byte) {
		seq := seqOf(key)
		until("the scribbling to begin", func() bool { return scribbling.Load() == seq+1 })
	}
	h := newTestHost(t, func(c *Config) {
		c.Read = ReadConfig{FaultBound: 1, Responders: []StateReader{
			&pollReader{first: present(string(x), 2), later: present(string(x), 2), polls: map[string]int{}},
			scribbler, lagging}}
	})
	cl, err := Dial(h.gw.Addr(), func(ev ServerEvent) {
		switch ev.Kind {
		case MsgHelloAck:
			return
		case MsgValue:
			if ev.Quorum != 2 || !bytes.Equal(ev.Value, y) {
				bad.CompareAndSwap(nil, fmt.Sprintf("read %d: quorum %d, value %.8q... (%d bytes), want Y@1 from two",
					ev.Seq, ev.Quorum, ev.Value, len(ev.Value)))
			}
		default:
			bad.CompareAndSwap(nil, fmt.Sprintf("read %d: kind %#x reason %d", ev.Seq, ev.Kind, ev.Reason))
		}
		answered.Add(1)
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for seq := uint64(0); seq < reads; seq++ {
		if err := cl.Read(1, seq, []byte{byte(seq >> 8), byte(seq)}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the read's answer", func() bool { return answered.Load() == int64(seq)+1 })
		if msg := bad.Load(); msg != nil {
			t.Fatal(msg)
		}
	}
}

// TestClientValuesOwnTheirBytes: the client copies each VALUE out of its
// frame buffer into a shared chunk, or past 4 KiB into an array of its own.
// The bytes handed to OnEvent stay as they were after a hundred later VALUE
// frames, and an append to one value reaches no neighbour.
func TestClientValuesOwnTheirBytes(t *testing.T) {
	const reads = 101
	valueOf := func(key []byte) []byte { // 100 to 5 100 bytes of key[0]
		return bytes.Repeat(key[:1], 100+50*int(key[0]))
	}
	h := newTestHost(t, func(c *Config) {
		r := StateReaderFunc(func(dst, key []byte) ([]byte, uint64, bool) { return append(dst, valueOf(key)...), 1, true })
		c.Read = ReadConfig{FaultBound: 1, Responders: []StateReader{r, r, r}}
	})
	got := make([][]byte, reads)
	var n atomic.Int64
	cl, err := Dial(h.gw.Addr(), func(ev ServerEvent) {
		if ev.Kind == MsgValue {
			got[ev.Seq] = ev.Value
			n.Add(1)
		}
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for seq := uint64(0); seq < reads; seq++ {
		if err := cl.Read(1, seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every answer", func() bool { return n.Load() == reads })
	for seq := range got {
		if want := valueOf([]byte{byte(seq)}); !bytes.Equal(got[seq], want) {
			t.Fatalf("read %d: %d bytes, want %d of %d: a later frame reached it", seq, len(got[seq]), len(want), seq)
		}
	}
	for seq := 0; seq+1 < reads; seq++ {
		_ = append(got[seq], 0xEE)
		if want := valueOf([]byte{byte(seq + 1)}); !bytes.Equal(got[seq+1], want) {
			t.Fatalf("an append to read %d's value reached read %d's", seq, seq+1)
		}
	}
}

// TestReadFloodIsBounded: reads go through admission, and a connection holds
// at most maxConnReads of them at a time. Ten thousand pipelined READs
// against responders that sleep are each answered exactly once — with a value
// or with ReadOverload — while goroutines and heap stay bounded and SUBMITs
// on the same connection are acknowledged promptly.
func TestReadFloodIsBounded(t *testing.T) {
	const reads, responders = 10000, 3
	h := newTestHost(t, func(c *Config) {
		c.Read = ReadConfig{FaultBound: 1}
		for i := 0; i < responders; i++ {
			c.Read.Responders = append(c.Read.Responders, copyReader([]byte("v"), 20*time.Millisecond))
		}
	})
	w := &readWatcher{answers: map[uint64]int{}, acked: make(chan uint64, 64)}
	cl, err := Dial(h.gw.Addr(), w.on)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()
	ackLimit := 50 * time.Millisecond
	if raceEnabled {
		ackLimit *= 5
	}
	var peak int
	for seq := uint64(0); seq < reads; seq++ {
		if err := cl.Read(1, seq, []byte("key")); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if seq%1000 == 999 {
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
			sent := time.Now()
			if err := cl.Submit(2, seq, []byte(fmt.Sprintf("tx-%d", seq))); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			select {
			case <-w.acked:
				if took := time.Since(sent); took > ackLimit {
					t.Fatalf("SUBMIT behind %d READs acknowledged after %v, want < %v", seq+1, took, ackLimit)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("SUBMIT behind the READs never acknowledged")
			}
		}
	}
	answered := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.answers)
	}
	waitFor(t, "every read answered", func() bool { return answered() == reads })
	time.Sleep(50 * time.Millisecond) // a second answer would have come by now
	w.mu.Lock()
	for seq, k := range w.answers {
		if k != 1 {
			t.Fatalf("read %d answered %d times", seq, k)
		}
	}
	w.mu.Unlock()
	shed := w.errs[ReadOverload].Load()
	if w.values.Load()+shed != reads || w.values.Load() < maxConnReads || shed == 0 {
		t.Fatalf("%d values + %d overload of %d reads (other errors: no-quorum %d, timeout %d)",
			w.values.Load(), shed, reads, w.errs[ReadNoQuorum].Load(), w.errs[ReadTimeout].Load())
	}
	// One goroutine per read in flight and one per poll, no more.
	if limit := goroutines + maxConnReads*(1+responders) + 16; peak > limit {
		t.Fatalf("%d goroutines during the flood, want <= %d", peak, limit)
	}
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 8<<20 {
		t.Fatalf("heap grew %d KiB over the flood", grew>>10)
	}
	t.Logf("%d values, %d shed, peak %d goroutines", w.values.Load(), shed, peak)
}

// TestReadAdmission: an oversized key and a client over its rate are shed
// with ReadOverload, as a flood is, and an oversized key spends no token.
func TestReadAdmission(t *testing.T) {
	h := newTestHost(t, func(c *Config) {
		c.MaxTx = 64
		c.Limits = Limits{ClientRate: 1, ClientBurst: 8, SamplePeriod: 10 * time.Millisecond}
		c.Read = ReadConfig{FaultBound: 1, Responders: []StateReader{
			copyReader([]byte("v"), 0), copyReader([]byte("v"), 0), copyReader([]byte("v"), 0)}}
	})
	w := &readWatcher{}
	cl, err := Dial(h.gw.Addr(), w.on)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Read(1, 0, make([]byte, 65)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the oversized key refused", func() bool { return w.errs[ReadOverload].Load() == 1 })
	for seq := uint64(1); seq <= 20; seq++ {
		if err := cl.Read(1, seq, []byte("key")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "20 answers", func() bool { return w.values.Load()+w.errs[ReadOverload].Load() == 21 })
	if v := w.values.Load(); v != 8 {
		t.Fatalf("%d reads served on a burst of 8, %d shed", v, w.errs[ReadOverload].Load())
	}
}
