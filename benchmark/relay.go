package main

import (
	"io"
	"net"
	"sync"
	"time"
)

// relay is one directed inter-node link: a loopback listener that the sending
// node dials instead of its peer (wired in with SetPeerAddr), forwarding every
// byte to the real peer, in order, a fixed one-way delay after it was read.
// The transport dials one connection per direction and the receiving side
// never writes on it, so only that direction carries data; the reverse
// direction is watched only to learn that the far node has gone away.
//
// The delay is what makes a run on this box repeat: rounds are paced by the
// relay's timer instead of by how fast two shared vCPUs happen to be. A
// dedicated nanosleep thread releasing the bytes was tried and was worse: every
// release then crosses two scheduler hand-offs instead of one timer wake-up.
type relay struct {
	ln     net.Listener
	target string
	delay  time.Duration

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

const (
	// relayRing holds the bytes in flight on one connection: bandwidth times
	// delay. 512 KiB at 20 ms is 26 MB/s per link, above what the heaviest
	// workload offers; a full ring backpressures the sender through TCP.
	relayRing = 512 << 10
	// relaySegs bounds the reads in flight on one connection.
	relaySegs = 4096
)

// seg is one read waiting out its delay: ring[off:off+n], due at due (ns
// since processStart).
type seg struct {
	off, n int
	due    int64
}

// newRelay opens the relay in front of target.
func newRelay(target string, delay time.Duration) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, delay: delay, conns: map[net.Conn]struct{}{}}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

func (r *relay) Addr() string { return r.ln.Addr().String() }

// Close stops the listener, severs every connection and waits for the
// forwarding goroutines; bytes still waiting out their delay are dropped.
func (r *relay) Close() {
	r.mu.Lock()
	r.closed = true
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.ln.Close()
	r.wg.Wait()
}

// track registers c for Close; it reports false (and closes c) when the relay
// is already shutting down.
func (r *relay) track(c net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		c.Close()
		return false
	}
	r.conns[c] = struct{}{}
	return true
}

func (r *relay) untrack(c net.Conn) {
	c.Close()
	r.mu.Lock()
	delete(r.conns, c)
	r.mu.Unlock()
}

func (r *relay) acceptLoop() {
	defer r.wg.Done()
	for {
		src, err := r.ln.Accept()
		if err != nil {
			return
		}
		if !r.track(src) {
			return
		}
		r.wg.Add(1)
		go r.serve(src)
	}
}

// serve forwards one accepted connection. A far node that is down refuses the
// dial, so the near node's writer sees its connection closed and falls into
// its reconnect backoff, as it would against the real peer.
func (r *relay) serve(src net.Conn) {
	defer r.wg.Done()
	defer r.untrack(src)
	dst, err := net.DialTimeout("tcp", r.target, 2*time.Second)
	if err != nil {
		return
	}
	if !r.track(dst) {
		return
	}
	defer r.untrack(dst)

	// The far node closing its side must tear the link down even while the
	// near node is silent; nothing else ever arrives from dst.
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		io.Copy(io.Discard, dst)
		src.Close()
		dst.Close()
	}()

	ring := make([]byte, relayRing)
	segs := make(chan seg, relaySegs)
	// freed returns ring space to the reader; it can hold one entry per
	// segment in flight, so the writer never blocks on it.
	freed := make(chan int, relaySegs+2)

	// The writer outlives the reader by up to one delay: bytes read before
	// the near side closed are still delivered.
	flushed := make(chan struct{})
	dead := make(chan struct{}) // closed when a write to dst fails
	go func() {
		defer close(flushed)
		for s := range segs {
			if d := s.due - sinceStart(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if _, err := dst.Write(ring[s.off : s.off+s.n]); err != nil {
				close(dead)
				src.Close() // fails the reader, which then closes segs
				for range segs {
				}
				return
			}
			freed <- s.n
		}
	}()

	delay := int64(r.delay)
	wpos, avail := 0, relayRing
	for {
		for avail == 0 {
			select {
			case n := <-freed:
				avail += n
			case <-dead:
				close(segs)
				<-flushed
				return
			}
		}
	reclaim:
		for {
			select {
			case n := <-freed:
				avail += n
			default:
				break reclaim
			}
		}
		span := min(avail, relayRing-wpos)
		n, err := src.Read(ring[wpos : wpos+span])
		if n > 0 {
			segs <- seg{off: wpos, n: n, due: sinceStart() + delay}
			avail -= n
			wpos = (wpos + n) % relayRing
		}
		if err != nil {
			close(segs)
			<-flushed
			return
		}
	}
}
