package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clanbft/internal/types"
)

func TestFrameRefcountRelease(t *testing.T) {
	m := ping(42)
	f := encodeFrame(m, 3)
	if len(f.b) == 0 {
		t.Fatal("empty encoded frame")
	}
	// Decoding the shared bytes must round-trip the message.
	got, err := types.Decode(f.b)
	if err != nil {
		t.Fatal(err)
	}
	if seqOf(got) != 42 {
		t.Fatalf("round-trip corrupted: %+v", got)
	}
	f.release()
	f.release()
	if f.b == nil {
		t.Fatal("buffer returned with references outstanding")
	}
	f.release()
	if f.b != nil {
		t.Fatal("last release must detach the buffer for pooling")
	}
}

func TestFrameConcurrentRelease(t *testing.T) {
	const refs = 64
	f := encodeFrame(ping(1), refs)
	var wg sync.WaitGroup
	for i := 0; i < refs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.release()
		}()
	}
	wg.Wait()
	if f.b != nil {
		t.Fatal("buffer leaked after all references released")
	}
}

// TestTCPMulticastSharedFrame exercises the encode-once path end to end: one
// Multicast to several real-socket peers must deliver an identical payload to
// each, count one wire send per remote peer, and account BytesSent as exactly
// remote-count times the single encoded frame size (the same bytes on every
// connection).
func TestTCPMulticastSharedFrame(t *testing.T) {
	const n = 4
	addrs := map[types.NodeID]string{}
	var eps []*TCPEndpoint
	for i := 0; i < n; i++ {
		ep, err := NewTCPEndpoint(types.NodeID(i), map[types.NodeID]string{types.NodeID(i): "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		addrs[types.NodeID(i)] = ep.Addr()
		eps = append(eps, ep)
	}
	for _, ep := range eps {
		ep.addrs = addrs
		defer ep.Close()
	}
	mus := make([]*sync.Mutex, n)
	gots := make([]*[]types.Message, n)
	for i, ep := range eps {
		mus[i], gots[i] = collect(ep)
	}

	payload := make([]byte, 32<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	m := blockMsg(9, payload)
	wire := uint64(len(types.Encode(m, nil)))

	eps[0].Broadcast(m)
	for i := 0; i < n; i++ {
		i := i
		waitFor(t, func() bool { mus[i].Lock(); defer mus[i].Unlock(); return len(*gots[i]) == 1 })
		mus[i].Lock()
		got, ok := (*gots[i])[0].(*types.VtxRspMsg)
		mus[i].Unlock()
		if !ok || seqOf(got) != 9 || len(got.Block.Txs[0]) != len(payload) {
			t.Fatalf("peer %d: wrong delivery %T", i, (*gots[i])[0])
		}
		for j, b := range got.Block.Txs[0] {
			if b != payload[j] {
				t.Fatalf("peer %d: payload corrupted at byte %d", i, j)
			}
		}
	}

	st := eps[0].Stats()
	if st.MsgsSent != n-1 {
		t.Fatalf("MsgsSent = %d, want %d", st.MsgsSent, n-1)
	}
	if st.BytesSent != wire*(n-1) {
		t.Fatalf("BytesSent = %d, want %d (= %d peers x %d frame bytes)",
			st.BytesSent, wire*(n-1), n-1, wire)
	}
	if st.MsgsDropped != 0 {
		t.Fatalf("unexpected drops: %d", st.MsgsDropped)
	}
}

// TestMulticastSteadyStateAllocs: a Multicast of a pooled-size message to two
// socket peers allocates nothing once the pools are warm — the frame's bytes
// and the refcount header guarding them both come back with the last release.
// The peers are bare listeners that discard what they read, so the count is
// the sender's and its writers' alone. sync.Pool sheds Puts under the race
// detector, so the count is asserted in a plain build only; the body runs,
// and is race-checked, in both.
func TestMulticastSteadyStateAllocs(t *testing.T) {
	pc := types.StartPoolCheck()
	var sunk atomic.Int64
	addrs := map[types.NodeID]string{0: "127.0.0.1:0"}
	for id := types.NodeID(1); id <= 2; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[id] = ln.Addr().String()
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			buf := make([]byte, 64<<10)
			for {
				n, err := c.Read(buf)
				sunk.Add(int64(n))
				if err != nil {
					return
				}
			}
		}()
	}
	ep, err := NewTCPEndpoint(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	tos := []types.NodeID{1, 2}
	msg := blockMsg(1, make([]byte, 1500))
	// What the listeners should have read: per peer, the two-byte handshake,
	// then a four-byte length prefix and the frame for every message sent.
	wire := func() int64 {
		st := ep.Stats()
		return int64(st.BytesSent) + 4*int64(st.MsgsSent) + 2*int64(len(tos))
	}
	send := func() {
		ep.Multicast(tos, msg)
		for sunk.Load() < wire() { // one message in flight at a time
			time.Sleep(20 * time.Microsecond)
		}
	}
	for i := 0; i < 100; i++ {
		send() // dial, handshake, and warm every pool on the path
	}
	allocs := testing.AllocsPerRun(500, send)
	if st := ep.Stats(); st.MsgsDropped != 0 {
		t.Fatalf("%d frames dropped", st.MsgsDropped)
	}
	if allocs != 0 && !raceEnabled {
		t.Fatalf("steady-state Multicast allocates %.1f per call, want 0", allocs)
	}
	ep.Close()
	pc.AssertBalanced(t)
}
