package gateway

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestClientFrameBurst: the client slices server frames out of one read
// buffer. 1 500 COMMITs written as one stream, then a VALUE of 100 KiB (more
// than the buffer holds: the big-frame path), reach OnEvent whole and in
// order. A length prefix of zero, or past the 1 MiB cap, then ends the stream
// with an error.
func TestClientFrameBurst(t *testing.T) {
	const commits = 1500
	value := bytes.Repeat([]byte("v"), 100<<10)
	for _, bad := range []uint32{0, maxServerFrame + 1} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			// HELLO, then the ACK; the burst waits for the client's first
			// SUBMIT so that Dial has returned before the stream ends.
			if _, err := io.ReadFull(c, make([]byte, 6)); err != nil {
				return
			}
			c.Write(appendEvent(nil, &ServerEvent{Kind: MsgHelloAck, Version: ProtoVersion, Fc: 1, MaxTx: 1 << 16}))
			var hdr [4]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return
			}
			if _, err := io.ReadFull(c, make([]byte, binary.BigEndian.Uint32(hdr[:]))); err != nil {
				return
			}
			var b []byte
			for i := uint64(0); i < commits; i++ {
				b = appendEvent(b, &ServerEvent{Kind: MsgCommit, Client: 1, Seq: i, Round: i + 1})
			}
			b = appendEvent(b, &ServerEvent{Kind: MsgValue, Client: 1, Seq: commits, Quorum: 2, Value: value})
			c.Write(binary.BigEndian.AppendUint32(b, bad))
			io.Copy(io.Discard, c) // until the client closes
		}()
		var got []ServerEvent
		cl, err := Dial(ln.Addr().String(), func(ev ServerEvent) { got = append(got, ev) })
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		if err := cl.Submit(1, 0, []byte("tx")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-cl.done:
		case <-time.After(10 * time.Second):
			t.Fatal("the stream did not end at the bad length prefix")
		}
		if err := cl.Err(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("length %d: stream ended with %v, want a length error", bad, err)
		}
		cl.Close()
		if len(got) != commits+2 || got[0].Kind != MsgHelloAck {
			t.Fatalf("got %d events, want the HELLO_ACK, %d COMMITs and a VALUE", len(got), commits)
		}
		for i, ev := range got[1 : commits+1] {
			if ev.Kind != MsgCommit || ev.Seq != uint64(i) || ev.Round != uint64(i)+1 {
				t.Fatalf("event %d: %+v", i+1, ev)
			}
		}
		if v := got[commits+1]; v.Kind != MsgValue || v.Seq != commits || v.Quorum != 2 || !bytes.Equal(v.Value, value) {
			t.Fatalf("last event: kind %d seq %d quorum %d, %d value bytes", v.Kind, v.Seq, v.Quorum, len(v.Value))
		}
	}
}
