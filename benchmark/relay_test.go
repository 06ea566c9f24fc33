package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"
)

// sink accepts connections and hands each to serve.
func sink(t *testing.T, serve func(net.Conn)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(c)
		}
	}()
	return ln
}

// TestRelayDelay sends paced, stamped records through a relay and checks that
// they arrive intact, in order, and between delay-1ms and delay+1ms later at
// the 1st and 99th percentile.
func TestRelayDelay(t *testing.T) {
	const (
		delay   = 10 * time.Millisecond
		records = 1500
		recLen  = 16
	)
	// A noisy neighbour on the host can stretch one attempt's tail; a relay
	// that adds the wrong delay fails every attempt.
	var p1, p99 float64
	for attempt := 0; attempt < 3; attempt++ {
		added := make(chan []float64, 1)
		ln := sink(t, func(c net.Conn) {
			defer c.Close()
			var out []float64
			buf := make([]byte, 0, records*recLen)
			chunk := make([]byte, 4096)
			for len(buf) < records*recLen {
				n, err := c.Read(chunk)
				now := sinceStart()
				buf = append(buf, chunk[:n]...)
				for len(out) < len(buf)/recLen {
					rec := buf[len(out)*recLen:]
					if seq := binary.BigEndian.Uint64(rec); seq != uint64(len(out)) {
						t.Errorf("record %d carries seq %d", len(out), seq)
					}
					out = append(out, float64(now-int64(binary.BigEndian.Uint64(rec[8:])))/1e6)
				}
				if err != nil {
					break
				}
			}
			added <- out
		})
		r, err := newRelay(ln.Addr().String(), delay)
		if err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial("tcp", r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var rec [recLen]byte
		for i := 0; i < records; i++ {
			binary.BigEndian.PutUint64(rec[:], uint64(i))
			binary.BigEndian.PutUint64(rec[8:], uint64(sinceStart()))
			if _, err := c.Write(rec[:]); err != nil {
				t.Fatal(err)
			}
			sleepPrecise(int64(300 * time.Microsecond))
		}
		got := <-added
		c.Close()
		r.Close()
		ln.Close()
		if len(got) != records {
			t.Fatalf("%d of %d records arrived", len(got), records)
		}
		sort.Float64s(got)
		p1, p99 = percentile(got, 0.01), percentile(got, 0.99)
		t.Logf("attempt %d: added delay p1 %.3f ms, p50 %.3f ms, p99 %.3f ms", attempt, p1, percentile(got, 0.5), p99)
		if p1 >= 9 && p99 <= 11 {
			return
		}
	}
	t.Errorf("added delay p1 %.3f ms, p99 %.3f ms: outside 10 ms +- 1 ms", p1, p99)
}

// TestRelayByteExact pushes more than the ring holds, in uneven writes, and
// closes: every byte must come out, in order, including those still waiting
// out their delay when the near side closed.
func TestRelayByteExact(t *testing.T) {
	want := make([]byte, 3*relayRing+12345)
	rand.New(rand.NewSource(7)).Read(want)
	got := make(chan []byte, 1)
	ln := sink(t, func(c net.Conn) {
		defer c.Close()
		b, _ := io.ReadAll(c)
		got <- b
	})
	defer ln.Close()
	r, err := newRelay(ln.Addr().String(), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for rest := want; len(rest) > 0; {
		n := min(len(rest), 1+rng.Intn(100_000))
		if _, err := c.Write(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	c.Close()
	select {
	case b := <-got:
		if !bytes.Equal(b, want) {
			t.Fatalf("stream differs: got %d bytes, want %d", len(b), len(want))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream never completed")
	}
}

// TestRelayFarSideCloses is what the crash workload depends on: when the far
// node goes away, the near side's connection is closed promptly, new dials
// are turned away, and Close still returns.
func TestRelayFarSideCloses(t *testing.T) {
	accepted := make(chan net.Conn, 1)
	ln := sink(t, func(c net.Conn) { accepted <- c })
	r, err := newRelay(ln.Addr().String(), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	far := <-accepted
	ln.Close()
	far.Close() // the far node dies while the near one is silent

	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("near side not closed after the far side went away: %v", err)
	}
	c2, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c2.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("dial towards a dead node was not turned away: %v", err)
	}
	closed := make(chan struct{})
	go func() { r.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs after the far side went away")
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
