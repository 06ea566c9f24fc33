package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"clanbft/internal/types"
)

// frameStream encodes msgs as length-prefixed wire frames, exactly as a
// writeLoop would emit them.
func frameStream(msgs ...types.Message) []byte {
	var out []byte
	for _, m := range msgs {
		body := types.Encode(m, nil)
		out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
		out = append(out, body...)
	}
	return out
}

// TestFrameReaderMalformedInputs feeds the frame reader the stream-level
// corruptions a Byzantine or crashing peer can produce. Every case must
// surface a terminal error (the read loop closes the connection) without
// panicking or leaking a pooled chunk.
func TestFrameReaderMalformedInputs(t *testing.T) {
	huge := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	cases := []struct {
		name    string
		in      []byte
		wantEOF bool // specifically io.ErrUnexpectedEOF
	}{
		{"empty stream", nil, false},
		{"truncated header", []byte{0x00, 0x01}, true},
		{"zero-length frame", []byte{0, 0, 0, 0}, false},
		{"oversized length prefix", huge, false},
		{"mid-frame EOF", append([]byte{0, 0, 0, 100}, 1, 2, 3, 4, 5)[:9], true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pc := types.StartPoolCheck()
			var allocs atomic.Uint64
			fr := newFrameReader(bytes.NewReader(tc.in), &allocs)
			_, _, err := fr.next()
			if err == nil {
				t.Fatal("expected a terminal error")
			}
			if tc.wantEOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
			}
			fr.close()
			pc.AssertBalanced(t)
		})
	}
}

// TestFrameReaderChunkStraddle pushes several chunks' worth of small frames —
// plus one frame larger than a chunk — through the reader and checks that
// every frame decodes to its original bytes, tail-carry and oversized copies
// are charged to the alloc counter, and the pool balances after release.
func TestFrameReaderChunkStraddle(t *testing.T) {
	pc := types.StartPoolCheck()

	const nSmall = 2000
	const bigAt = 1000
	const bigSize = 100_000 // > rxChunk: takes the dedicated-buffer path
	var msgs []types.Message
	for i := 0; i < nSmall; i++ {
		if i == bigAt {
			big := make([]byte, bigSize)
			for j := range big {
				big[j] = byte(j)
			}
			msgs = append(msgs, &types.BlockRspMsg{Block: &types.Block{Round: types.Round(i), Txs: [][]byte{big}}})
		}
		msgs = append(msgs, &types.EchoMsg{Voter: 2, Entries: []types.EchoEntry{
			{Pos: types.Position{Round: types.Round(i), Source: 1}, Digest: types.HashBytes([]byte{byte(i)})},
		}})
	}
	stream := frameStream(msgs...)
	if len(stream) < 3*rxChunk {
		t.Fatalf("stream too short to straddle chunks: %d bytes", len(stream))
	}

	var allocs atomic.Uint64
	fr := newFrameReader(bytes.NewReader(stream), &allocs)
	var dec types.Decoder
	for i, want := range msgs {
		frame, rb, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		m, err := dec.DecodeFrom(rb, frame)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		// Compare while any borrowed bytes are still alive.
		if !bytes.Equal(types.Encode(m, nil), types.Encode(want, nil)) {
			t.Fatalf("frame %d decoded to different bytes", i)
		}
		types.ReleaseMsg(m)
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("want clean EOF after last frame, got %v", err)
	}
	fr.close()

	if got := allocs.Load(); got < bigSize {
		t.Fatalf("rx alloc accounting %d; want >= %d (oversized frame + tail carries)", got, bigSize)
	}
	pc.AssertBalanced(t)
}

// FuzzFrameReader drives the reader plus decoder with arbitrary bytes:
// no input may panic, and every receive chunk the reader touched must end at
// refcount zero once the reader and all decoded messages release.
func FuzzFrameReader(f *testing.F) {
	f.Add(frameStream(ping(1), ping(2)))
	f.Add(frameStream(&types.EchoMsg{Entries: make([]types.EchoEntry, 1), Voter: 3})[:10]) // mid-frame EOF
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var allocs atomic.Uint64
		fr := newFrameReader(bytes.NewReader(data), &allocs)
		var dec types.Decoder
		seen := map[*types.RecvBuf]struct{}{}
		for {
			frame, rb, err := fr.next()
			if err != nil {
				break
			}
			seen[rb] = struct{}{}
			m, err := dec.DecodeFrom(rb, frame)
			if err != nil {
				continue
			}
			types.ReleaseMsg(m)
		}
		fr.close()
		// Refcount discipline is checked per-buffer rather than via the
		// global pool counters, which parallel fuzz workers share.
		for rb := range seen {
			if rb.Refs() != 0 {
				t.Fatalf("chunk leaked with %d refs", rb.Refs())
			}
		}
	})
}

// TestReadLoopMalformedFrames exercises the corruption cases over a real
// socket: a malformed message body is skipped, a bad length prefix or
// mid-frame EOF closes that connection only, accounting reflects exactly the
// frames that decoded, and the endpoint stays usable for new connections. The
// pool must balance after Close.
func TestReadLoopMalformedFrames(t *testing.T) {
	pc := types.StartPoolCheck()
	addrs := map[types.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:1"}
	ep, err := NewTCPEndpoint(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	mu, got := collect(ep)
	count := func() int { mu.Lock(); defer mu.Unlock(); return len(*got) }

	hello := []byte{0, 1} // NodeID 1, a known peer
	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(hello); err != nil {
			t.Fatal(err)
		}
		return c
	}

	validBody := types.Encode(ping(1), nil)
	valid := frameStream(ping(1))

	// One good frame, then a well-framed but undecodable body (the Byzantine
	// case): the bad message is skipped and the connection keeps working.
	c1 := dial()
	c1.Write(valid)
	waitFor(t, func() bool { return count() == 1 })
	c1.Write([]byte{0, 0, 0, 2, 0xFF, 0xFF})
	c1.Write(valid)
	waitFor(t, func() bool { return count() == 2 })

	// An out-of-range length prefix is unrecoverable: the endpoint must close
	// this connection (our next read sees EOF/reset, not a timeout).
	c1.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	c1.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c1.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after bad length prefix")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("endpoint never closed the corrupted connection")
	}
	c1.Close()

	// Mid-frame EOF: header promises 100 bytes, the peer dies after 10.
	c2 := dial()
	c2.Write(append([]byte{0, 0, 0, 100}, make([]byte, 10)...))
	c2.Close()

	// The endpoint itself must survive both failures.
	c3 := dial()
	c3.Write(valid)
	waitFor(t, func() bool { return count() == 3 })
	c3.Close()

	st := ep.Stats()
	if st.MsgsRecv != 3 || st.BytesRecv != 3*uint64(len(validBody)) {
		t.Fatalf("accounting off: MsgsRecv=%d BytesRecv=%d, want 3 msgs / %d bytes",
			st.MsgsRecv, st.BytesRecv, 3*len(validBody))
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	pc.AssertBalanced(t)
}

// TestCoalesceByteIdentity: a burst the writer gathers into shared writevs
// reaches the peer as exactly the frames built one by one — a length prefix,
// then types.Encode — and the send-side accounting counts every frame.
func TestCoalesceByteIdentity(t *testing.T) {
	// A deterministic mixed burst of vote-sized and payload-carrying frames.
	var burst []types.Message
	for i := 0; i < 200; i++ {
		if i%5 == 0 {
			tx := bytes.Repeat([]byte{byte(i)}, 100+i*7)
			burst = append(burst, &types.BlockRspMsg{Block: &types.Block{Round: types.Round(i), Txs: [][]byte{tx}}})
		} else {
			burst = append(burst, &types.EchoMsg{Voter: 1, Entries: []types.EchoEntry{
				{Pos: types.Position{Round: types.Round(i), Source: 0}, Digest: types.HashBytes([]byte{byte(i)})},
			}})
		}
	}
	want := frameStream(burst...)

	// Raw capturing sink in place of a peer endpoint: we want the exact bytes
	// on the wire, not the decoded messages.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	captured := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.ReadFull(c, make([]byte, 2)) // discard the hello
		buf := make([]byte, 0, len(want))
		tmp := make([]byte, 32<<10)
		for len(buf) < len(want) {
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := c.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		captured <- buf
	}()

	ep, err := NewTCPEndpoint(0, map[types.NodeID]string{0: "127.0.0.1:0", 1: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	for _, m := range burst {
		ep.Send(1, m)
	}
	var stream []byte
	select {
	case stream = <-captured:
	case <-time.After(10 * time.Second):
		t.Fatal("sink never received the burst")
	}
	if !bytes.Equal(stream, want) {
		t.Fatalf("wire bytes differ from the frames built one by one: captured %d bytes, want %d", len(stream), len(want))
	}
	st := ep.Stats()
	if st.MsgsSent != uint64(len(burst)) || st.BytesSent != uint64(len(want)-4*len(burst)) || st.MsgsDropped != 0 {
		t.Fatalf("send accounting: %d sent, %d bytes, %d dropped; want %d, %d, 0",
			st.MsgsSent, st.BytesSent, st.MsgsDropped, len(burst), len(want)-4*len(burst))
	}
	if st.CoalescedFrames == 0 || st.Flushes >= st.MsgsSent {
		t.Fatalf("the writer batched nothing: %d flushes, %d frames coalesced", st.Flushes, st.CoalescedFrames)
	}
}
