// Package gateway is the client-facing serving front door: a TCP listener
// speaking a small length-prefixed framed protocol through which external
// clients submit transactions into consensus, read replicated state with
// f_c+1 response aggregation, and receive streamed commit notifications.
//
// The paper's clan architecture exists to serve clients at scale — writes
// funnel through the clan's proposers into the DAG, reads are answered by
// f_c+1 local responders without touching consensus — and this package is
// that missing path from a socket to the pipeline. Its second job is
// admission control: per-client token buckets plus global backpressure keyed
// off the true mempool depth and the exec stage's queue-wait signal, so that
// under overload the gateway sheds load at the edge and the consensus core
// keeps committing at its sustainable rate (see `bench -exp gateway`).
package gateway

import (
	"encoding/binary"
	"fmt"
)

// ProtoVersion is the client protocol version carried in HELLO/HELLO_ACK.
const ProtoVersion = 1

// Client→gateway message types (first body byte after the length prefix).
const (
	MsgHello  = 0x01 // version byte
	MsgSubmit = 0x02 // clientID, seq uvarints; rest = transaction bytes
	MsgRead   = 0x03 // clientID, seq uvarints; rest = key bytes
)

// Gateway→client message types.
const (
	MsgHelloAck = 0x81 // version byte, faultBound, maxTx uvarints
	MsgAck      = 0x82 // clientID, seq — admitted into the mempool
	MsgReject   = 0x83 // clientID, seq, reason byte — shed at admission
	MsgCommit   = 0x84 // clientID, seq, round, latency ns — transaction committed
	MsgValue    = 0x85 // clientID, seq, quorum byte, value bytes
	MsgReadErr  = 0x86 // clientID, seq, reason byte
)

// Reject reasons.
const (
	RejectRateLimit = 1 // per-client token bucket empty
	RejectOverload  = 2 // global backpressure (mempool depth / exec queue wait / pending cap)
	RejectTooLarge  = 3 // transaction exceeds MaxTx
	RejectMalformed = 4 // frame parsed but payload is invalid (e.g. empty tx)
)

// Read error reasons.
const (
	ReadNoQuorum = 1 // responders disagree beyond f_c+1 matching
	ReadTimeout  = 2 // not enough responders answered in time
	ReadOverload = 3 // shed at admission: client over its rate, too many reads in flight, or an oversized key
)

// RejectReason renders a reject code for reports and logs.
func RejectReason(r byte) string {
	switch r {
	case RejectRateLimit:
		return "rate-limit"
	case RejectOverload:
		return "overload"
	case RejectTooLarge:
		return "too-large"
	case RejectMalformed:
		return "malformed"
	}
	return fmt.Sprintf("reason-%d", r)
}

// clientMsg is one decoded client→gateway message. Payload aliases the
// connection's read buffer the frame was sliced from and is only valid until
// the next frame is read — retain by copying (the submit path must copy
// anyway: the mempool keeps transaction bytes for the proposal's lifetime).
type clientMsg struct {
	kind    byte
	client  uint64
	seq     uint64
	payload []byte
	version byte // MsgHello only
}

// errProto marks protocol violations that are terminal for the connection.
type errProto string

func (e errProto) Error() string { return string(e) }

// parseClientMsg decodes one frame body. A malformed body is a protocol
// error: the gateway closes the connection, exactly as the transport does
// for undecodable peer frames (a confused client cannot be resynchronized
// inside a corrupted byte stream).
func parseClientMsg(body []byte) (clientMsg, error) {
	if len(body) == 0 {
		return clientMsg{}, errProto("empty frame body")
	}
	m := clientMsg{kind: body[0]}
	rest := body[1:]
	switch m.kind {
	case MsgHello:
		if len(rest) != 1 {
			return clientMsg{}, errProto("bad HELLO length")
		}
		m.version = rest[0]
		return m, nil
	case MsgSubmit, MsgRead:
		var n int
		m.client, n = binary.Uvarint(rest)
		if n <= 0 {
			return clientMsg{}, errProto("bad clientID varint")
		}
		rest = rest[n:]
		m.seq, n = binary.Uvarint(rest)
		if n <= 0 {
			return clientMsg{}, errProto("bad seq varint")
		}
		m.payload = rest[n:]
		return m, nil
	default:
		return clientMsg{}, errProto(fmt.Sprintf("unknown message type 0x%02x", m.kind))
	}
}

// ServerEvent is one decoded gateway→client message, surfaced by the Client
// helper (and the load generator built on it).
type ServerEvent struct {
	Kind    byte
	Client  uint64
	Seq     uint64
	Round   uint64 // MsgCommit
	Latency uint64 // MsgCommit: gateway submit→commit latency, nanoseconds
	Reason  byte   // MsgReject / MsgReadErr
	Quorum  byte   // MsgValue
	Value   []byte // MsgValue; the receiver's own copy, which nothing writes again
	Version byte   // MsgHelloAck
	Fc      uint64 // MsgHelloAck
	MaxTx   uint64 // MsgHelloAck
}

// appendEvent appends ev's wire frame, 4-byte length prefix included, to b:
// the server-side encoder and the inverse of parseServerEvent. Frames are
// appended straight into the connection's write buffer (gwConn), so encoding
// one costs no buffer of its own.
func appendEvent(b []byte, ev *ServerEvent) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, ev.Kind)
	if ev.Kind == MsgHelloAck {
		b = append(b, ev.Version)
		b = binary.AppendUvarint(b, ev.Fc)
		b = binary.AppendUvarint(b, ev.MaxTx)
	} else {
		b = binary.AppendUvarint(b, ev.Client)
		b = binary.AppendUvarint(b, ev.Seq)
		switch ev.Kind {
		case MsgReject, MsgReadErr:
			b = append(b, ev.Reason)
		case MsgCommit:
			// The gateway-observed submit→commit latency (nanoseconds) rides
			// along so clients see the server-side number next to their own
			// e2e measurement — the gap is queueing and wire time outside
			// consensus.
			b = binary.AppendUvarint(b, ev.Round)
			b = binary.AppendUvarint(b, ev.Latency)
		case MsgValue:
			b = append(b, ev.Quorum)
			b = append(b, ev.Value...)
		}
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// parseServerEvent decodes one gateway→client frame body (client side). A
// VALUE's payload aliases body; the Client copies it out before the next
// frame overwrites the buffer.
func parseServerEvent(body []byte) (ServerEvent, error) {
	if len(body) == 0 {
		return ServerEvent{}, errProto("empty frame body")
	}
	ev := ServerEvent{Kind: body[0]}
	rest := body[1:]
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	switch ev.Kind {
	case MsgHelloAck:
		if len(rest) < 1 {
			return ServerEvent{}, errProto("short HELLO_ACK")
		}
		ev.Version = rest[0]
		rest = rest[1:]
		var ok bool
		if ev.Fc, ok = uv(); !ok {
			return ServerEvent{}, errProto("bad HELLO_ACK fc")
		}
		if ev.MaxTx, ok = uv(); !ok {
			return ServerEvent{}, errProto("bad HELLO_ACK maxTx")
		}
		return ev, nil
	case MsgAck, MsgReject, MsgCommit, MsgValue, MsgReadErr:
		var ok bool
		if ev.Client, ok = uv(); !ok {
			return ServerEvent{}, errProto("bad clientID varint")
		}
		if ev.Seq, ok = uv(); !ok {
			return ServerEvent{}, errProto("bad seq varint")
		}
		switch ev.Kind {
		case MsgReject, MsgReadErr:
			if len(rest) != 1 {
				return ServerEvent{}, errProto("bad reason")
			}
			ev.Reason = rest[0]
		case MsgCommit:
			if ev.Round, ok = uv(); !ok {
				return ServerEvent{}, errProto("bad round varint")
			}
			if ev.Latency, ok = uv(); !ok {
				return ServerEvent{}, errProto("bad latency varint")
			}
		case MsgValue:
			if len(rest) < 1 {
				return ServerEvent{}, errProto("short VALUE")
			}
			ev.Quorum = rest[0]
			ev.Value = rest[1:]
		}
		return ev, nil
	default:
		return ServerEvent{}, errProto(fmt.Sprintf("unknown server message type 0x%02x", ev.Kind))
	}
}
