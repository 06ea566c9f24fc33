package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/iotest"
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
// panicking or leaking a pooled buffer.
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
			fr := NewFrameReader(bytes.NewReader(tc.in), nil)
			_, err := fr.Next()
			if err == nil {
				t.Fatal("expected a terminal error")
			}
			if tc.wantEOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
			}
			fr.Close()
			pc.AssertBalanced(t)
		})
	}
}

// TestFrameReaderAllocatesForBytesReceived: a length prefix is a promise, not
// bytes. A peer that claims a maximal frame and then sends 1 KiB of it must
// not make the reader allocate the 64 MiB it claimed.
func TestFrameReaderAllocatesForBytesReceived(t *testing.T) {
	pc := types.StartPoolCheck()
	in := append(binary.BigEndian.AppendUint32(nil, maxFrame), make([]byte, 1<<10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fr := NewFrameReader(bytes.NewReader(in), nil)
	_, err := fr.Next()
	fr.Close()
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a 64 MiB header and 1 KiB of body allocated %d bytes, want < 1 MiB", got)
	}
	pc.AssertBalanced(t)
}

// TestFrameReaderChunkStraddle pushes several buffers' worth of small frames —
// plus one frame larger than two buffers — through the reader in short reads,
// and checks that every frame decodes to its original bytes, tail moves and
// the oversized frame are charged to the alloc counter, and the pool balances
// after Close.
func TestFrameReaderChunkStraddle(t *testing.T) {
	pc := types.StartPoolCheck()

	const nSmall = 2000
	const bigAt = 1000
	const bigSize = 300_000 // > 2*rxChunk: the oversized buffer grows twice
	var msgs []types.Message
	for i := 0; i < nSmall; i++ {
		if i == bigAt {
			big := make([]byte, bigSize)
			for j := range big {
				big[j] = byte(j)
			}
			msgs = append(msgs, blockMsg(types.Round(i), big))
		}
		msgs = append(msgs, &types.EchoMsg{Voter: 2, Entries: []types.EchoEntry{
			{Pos: types.Position{Round: types.Round(i), Source: 1}, Digest: types.HashBytes([]byte{byte(i)})},
		}})
	}
	stream := frameStream(msgs...)
	if len(stream) < 3*rxChunk {
		t.Fatalf("stream too short to straddle buffers: %d bytes", len(stream))
	}

	var allocs atomic.Uint64
	fr := NewFrameReader(iotest.HalfReader(bytes.NewReader(stream)), &allocs)
	var dec types.Decoder
	for i, want := range msgs {
		frame, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		m, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !bytes.Equal(types.Encode(m, nil), types.Encode(want, nil)) {
			t.Fatalf("frame %d decoded to different bytes", i)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want clean EOF after last frame, got %v", err)
	}
	fr.Close()

	if got := allocs.Load(); got < bigSize {
		t.Fatalf("rx alloc accounting %d; want >= %d (oversized frame + tail moves)", got, bigSize)
	}
	pc.AssertBalanced(t)
}

// FuzzFrameReader drives the reader plus decoder with arbitrary bytes: no
// input may panic, and a decoded message must re-encode to the same bytes
// after the next frame has been read into the buffer it was decoded from.
func FuzzFrameReader(f *testing.F) {
	f.Add(frameStream(ping(1), ping(2)))
	f.Add(frameStream(&types.EchoMsg{Entries: make([]types.EchoEntry, 1), Voter: 3})[:10]) // mid-frame EOF
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), nil)
		defer fr.Close()
		var dec types.Decoder
		var prev types.Message
		var prevEnc []byte
		for {
			frame, err := fr.Next()
			if prev != nil && !bytes.Equal(types.Encode(prev, nil), prevEnc) {
				t.Fatalf("%T changed when the next frame was read", prev)
			}
			if err != nil {
				return
			}
			prev, err = dec.Decode(frame)
			if err != nil {
				prev = nil
				continue
			}
			prevEnc = types.Encode(prev, nil)
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
			burst = append(burst, blockMsg(types.Round(i), tx))
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
