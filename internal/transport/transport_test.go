package transport

import (
	"fmt"
	"io"
	"maps"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clanbft/internal/types"
)

// blockMsg is a payload-carrying message: a pull reply for round r whose
// block holds the one transaction tx.
func blockMsg(r types.Round, tx []byte) *types.VtxRspMsg {
	return &types.VtxRspMsg{Vertex: &types.Vertex{Round: r}, Block: &types.Block{Round: r, Txs: [][]byte{tx}}}
}

// ping is a small payload-carrying message whose one transaction reads
// "ping", numbered by its block's round.
func ping(seq uint64) types.Message { return blockMsg(types.Round(seq), []byte("ping")) }

// seqOf is the number a ping carries.
func seqOf(m types.Message) uint64 { return uint64(m.(*types.VtxRspMsg).Block.Round) }

func collect(ep Endpoint) (*sync.Mutex, *[]types.Message) {
	var mu sync.Mutex
	var got []types.Message
	ep.SetHandler(func(from types.NodeID, m types.Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	return &mu, &got
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not met within 5s")
}

// loopback binds n endpoints to loopback ports the kernel picks and gives
// each the others' bound addresses; the test's cleanup closes them.
func loopback(t testing.TB, n int) []*TCPEndpoint {
	t.Helper()
	addrs := map[types.NodeID]string{}
	eps := make([]*TCPEndpoint, n)
	for i := range eps {
		id := types.NodeID(i)
		ep, err := NewTCPEndpoint(id, map[types.NodeID]string{id: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i], addrs[id] = ep, ep.Addr()
	}
	for _, ep := range eps {
		ep.addrs = maps.Clone(addrs)
	}
	return eps
}

func TestHandlerSerialized(t *testing.T) {
	eps := loopback(t, 2)
	var inHandler atomic.Int32
	var violations atomic.Int32
	done := make(chan struct{})
	var count atomic.Int32
	eps[1].SetHandler(func(types.NodeID, types.Message) {
		if inHandler.Add(1) != 1 {
			violations.Add(1)
		}
		time.Sleep(100 * time.Microsecond)
		inHandler.Add(-1)
		if count.Add(1) == 50 {
			close(done)
		}
	})
	for i := 0; i < 50; i++ {
		eps[0].Send(1, ping(uint64(i)))
	}
	<-done
	if violations.Load() != 0 {
		t.Fatalf("%d concurrent handler invocations", violations.Load())
	}
}

func TestRealClockTimer(t *testing.T) {
	ep := loopback(t, 1)[0]
	ep.SetHandler(func(types.NodeID, types.Message) {})
	clk := ep.Clock()

	fired := make(chan struct{})
	clk.After(10*time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer did not fire")
	}

	var fired2 atomic.Bool
	tm := clk.After(50*time.Millisecond, func() { fired2.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop before fire returned false")
	}
	time.Sleep(120 * time.Millisecond)
	if fired2.Load() {
		t.Fatal("stopped timer fired")
	}
	if clk.Now() <= 0 {
		t.Fatal("clock not advancing")
	}
	clk.Charge(time.Second) // must be a no-op on real clocks
}

func TestTCPEndpointRoundTrip(t *testing.T) {
	eps := loopback(t, 3)
	mus := make([]*sync.Mutex, 3)
	gots := make([]*[]types.Message, 3)
	for i, ep := range eps {
		mus[i], gots[i] = collect(ep)
	}

	eps[0].Send(1, ping(1))
	waitFor(t, func() bool { mus[1].Lock(); defer mus[1].Unlock(); return len(*gots[1]) == 1 })
	mus[1].Lock()
	if m := (*gots[1])[0].(*types.VtxRspMsg); string(m.Block.Txs[0]) != "ping" || seqOf(m) != 1 {
		t.Fatalf("payload corrupted: %+v", m)
	}
	mus[1].Unlock()

	// Bidirectional + broadcast.
	eps[1].Send(0, ping(2))
	eps[2].Broadcast(ping(3))
	waitFor(t, func() bool {
		mus[0].Lock()
		defer mus[0].Unlock()
		return len(*gots[0]) == 2
	})
	waitFor(t, func() bool {
		mus[2].Lock()
		defer mus[2].Unlock()
		return len(*gots[2]) == 1 // self-delivery from broadcast
	})
	if st := eps[2].Stats(); st.MsgsSent != 2 {
		t.Fatalf("broadcast wire sends = %d, want 2", st.MsgsSent)
	}
}

func TestTCPLargeMessage(t *testing.T) {
	eps := loopback(t, 2)
	a, b := eps[0], eps[1]
	mu, got := collect(b)
	a.SetHandler(func(types.NodeID, types.Message) {})

	// A ~3 MB payload (the paper's max proposal size).
	data := make([]byte, 3<<20)
	for i := range data {
		data[i] = byte(i)
	}
	a.Send(1, blockMsg(9, data))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*got) == 1 })
	mu.Lock()
	m := (*got)[0].(*types.VtxRspMsg).Block.Txs[0]
	mu.Unlock()
	if len(m) != len(data) || m[12345] != data[12345] {
		t.Fatal("large payload corrupted")
	}
}

func TestTCPReconnect(t *testing.T) {
	a, err := NewTCPEndpoint(0, map[types.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := NewTCPEndpoint(1, map[types.NodeID]string{1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addrB := b1.Addr()
	addrs := map[types.NodeID]string{0: a.Addr(), 1: addrB}
	a.addrs = addrs
	b1.addrs = addrs
	a.SetHandler(func(types.NodeID, types.Message) {})
	mu1, got1 := collect(b1)

	a.Send(1, ping(1))
	waitFor(t, func() bool { mu1.Lock(); defer mu1.Unlock(); return len(*got1) == 1 })

	// Kill b and restart on the same port; a must reconnect and deliver.
	b1.Close()
	time.Sleep(20 * time.Millisecond)
	b2, err := NewTCPEndpoint(1, map[types.NodeID]string{1: addrB})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2.addrs = addrs
	mu2, got2 := collect(b2)

	// The first sends may race the restart; keep sending until one lands.
	waitFor(t, func() bool {
		a.Send(1, ping(2))
		time.Sleep(5 * time.Millisecond)
		mu2.Lock()
		defer mu2.Unlock()
		return len(*got2) > 0
	})
}

func TestTCPUnknownPeerIgnored(t *testing.T) {
	a, err := NewTCPEndpoint(0, map[types.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	mu, got := collect(a)
	// Send to a peer with no address: must not panic or block.
	a.Send(42, ping(1))
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(*got) != 0 {
		t.Fatal("unexpected delivery")
	}
}

func TestMailboxCloseUnblocks(t *testing.T) {
	ep := loopback(t, 1)[0]
	ep.SetHandler(func(types.NodeID, types.Message) {})
	done := make(chan struct{})
	go func() {
		ep.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("close blocked")
	}
}

func BenchmarkTCPSend(b *testing.B) {
	eps := loopback(b, 2)
	a, c := eps[0], eps[1]
	var count atomic.Int64
	c.SetHandler(func(types.NodeID, types.Message) { count.Add(1) })
	a.SetHandler(func(types.NodeID, types.Message) {})
	m := ping(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(1, m)
	}
	deadline := time.Now().Add(10 * time.Second)
	for int(count.Load()) < b.N && time.Now().Before(deadline) {
		time.Sleep(10 * time.Microsecond)
	}
	b.StopTimer()
	if int(count.Load()) != b.N {
		b.Logf("delivered %d of %d (drops allowed under overload)", count.Load(), b.N)
	}
}

// TestMailboxBatchDrain: tasks queued behind a slow one are taken in one swap
// and run in order; the backlog gauge covers the batch being worked through;
// and the two backing arrays are reused across bursts instead of growing.
func TestMailboxBatchDrain(t *testing.T) {
	mb := newMailbox()
	defer mb.close()
	var mu sync.Mutex
	var got []uint64
	mb.setHandler(func(_ types.NodeID, m types.Message) {
		mu.Lock()
		got = append(got, seqOf(m))
		mu.Unlock()
	})
	mb.start()
	const bursts, burst = 50, 100
	for b := 0; b < bursts; b++ {
		gate := make(chan struct{})
		mb.push(task{fn: func() { <-gate }})
		for i := 0; i < burst; i++ {
			mb.push(task{msg: ping(uint64(b*burst + i))})
		}
		if d := mb.depth(); d < burst {
			t.Fatalf("depth %d with %d tasks parked behind a blocked one", d, burst)
		}
		close(gate)
		waitFor(t, func() bool { return mb.depth() == 0 })
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != bursts*burst {
		t.Fatalf("ran %d tasks, want %d", len(got), bursts*burst)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("task %d ran out of order (seq %d)", i, seq)
		}
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if c := cap(mb.queue) + cap(mb.spare); c > 4*(burst+1) {
		t.Fatalf("queue arrays hold %d slots after %d bursts of %d: not reused", c, bursts, burst)
	}
}

// TestMailboxDrainHook: the drain hook runs after the last task of each batch
// the loop took in one swap — never between two tasks of a batch whose
// verdicts are in — and before the loop blocks on a verdict that is not. The
// last is what lets a node's queued echo leave while the next VAL is still
// in the verify pool: the node ends its drain there and never waits on the
// pool itself.
func TestMailboxDrainHook(t *testing.T) {
	mb := newMailbox()
	defer mb.close()
	var mu sync.Mutex
	var log []string
	note := func(s string) { mu.Lock(); log = append(log, s); mu.Unlock() }
	logged := func() string { mu.Lock(); defer mu.Unlock(); return strings.Join(log, " ") }
	mb.setHandler(func(_ types.NodeID, m types.Message) { note(fmt.Sprint(seqOf(m))) })
	mb.setDrainHook(func() { note("|") })
	mb.start()
	// hold parks the loop inside a task, alone in its batch, until release:
	// what is pushed meanwhile is taken in one swap.
	hold := func() (release func()) {
		running, gate := make(chan struct{}), make(chan struct{})
		mb.push(task{fn: func() { close(running); <-gate }})
		<-running
		return func() { close(gate) }
	}

	release := hold()
	for i := 1; i <= 3; i++ {
		mb.push(task{msg: ping(uint64(i))})
	}
	release()
	waitFor(t, func() bool { return mb.depth() == 0 && strings.HasSuffix(logged(), "3 |") })
	if got := logged(); got != "| 1 2 3 |" {
		t.Fatalf("one burst ran as %q, want the hook after the blocked task's batch and after the burst's", got)
	}

	// A batch whose second verdict is late: the hook runs before the wait.
	in, late := verdictPool.Get().(*verdict), verdictPool.Get().(*verdict) // wait recycles them
	in.ok <- true
	release = hold()
	mb.push(task{msg: ping(4), gate: in})
	mb.push(task{msg: ping(5), gate: late})
	release()
	waitFor(t, func() bool { return strings.HasSuffix(logged(), "4 |") })
	late.ok <- true
	waitFor(t, func() bool { return mb.depth() == 0 && strings.HasSuffix(logged(), "5 |") })
	if got := logged(); got != "| 1 2 3 | | 4 | 5 |" {
		t.Fatalf("a batch with a late verdict ran as %q", got)
	}
}

// TestTCPBroadcastReachesAddedPeer: the cached broadcast list is rebuilt when
// AddPeer grows the address book.
func TestTCPBroadcastReachesAddedPeer(t *testing.T) {
	a, err := NewTCPEndpoint(0, map[types.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPEndpoint(1, map[types.NodeID]string{1: "127.0.0.1:0", 0: a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetHandler(func(types.NodeID, types.Message) {})
	mu, got := collect(b)
	a.Broadcast(ping(1)) // book holds only a itself: builds the cached list
	a.AddPeer(1, b.Addr())
	a.Broadcast(ping(2))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(*got) == 1 })
	mu.Lock()
	defer mu.Unlock()
	if seq := seqOf((*got)[0]); seq != 2 {
		t.Fatalf("added peer received seq %d, want 2", seq)
	}
}

// TestTCPRejectsOwnIDFromSocket: handlers trust from == Self as a local
// self-send, so a connection whose handshake claims the listener's own id is
// closed before any of its frames is dispatched.
func TestTCPRejectsOwnIDFromSocket(t *testing.T) {
	a, err := NewTCPEndpoint(0, map[types.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var mu sync.Mutex
	var froms []types.NodeID
	a.SetHandler(func(from types.NodeID, _ types.Message) {
		mu.Lock()
		froms = append(froms, from)
		mu.Unlock()
	})
	for _, claimed := range []byte{0, 1} {
		c, err := net.Dial("tcp", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(append([]byte{0, claimed}, frameStream(ping(uint64(claimed)))...)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(froms) > 0 })
	time.Sleep(20 * time.Millisecond) // let a wrongly accepted frame land
	mu.Lock()
	defer mu.Unlock()
	if len(froms) != 1 || froms[0] != 1 {
		t.Fatalf("handler saw senders %v, want only peer 1", froms)
	}
}

// TestRedialBacksOffWhenPeerDropsConnections: a peer that accepts a
// connection, reads the hello and closes it — a proxy in front of a dead
// node, a peer refusing this party — is redialed on the writer's backoff,
// not on every batch. Frames go out every 10 ms for 2 s: a writer that
// resets its backoff on each successful dial redials about every other one.
func TestRedialBacksOffWhenPeerDropsConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dials atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			var hello [2]byte
			io.ReadFull(c, hello[:])
			c.Close()
		}
	}()
	a, err := NewTCPEndpoint(0, map[types.NodeID]string{0: "127.0.0.1:0", 1: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetHandler(func(types.NodeID, types.Message) {})
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		a.Send(1, ping(1))
	}
	if got := dials.Load(); got > 10 {
		t.Fatalf("%d dials in 2 s to a peer that drops every connection, want <= 10", got)
	} else {
		t.Logf("%d dials in 2 s", got)
	}
}
