package gateway

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"clanbft/internal/transport"
)

// Client is a minimal gateway client: one TCP connection multiplexing any
// number of logical client IDs (the load generator runs thousands of
// simulated clients per connection). Writes are locked; events stream to a
// single OnEvent callback from a dedicated reader goroutine.
type Client struct {
	c    net.Conn
	wmu  sync.Mutex
	wbuf []byte

	onEvent func(ServerEvent)
	chunk   []byte // the unused tail of the reader's newest value chunk

	helloCh chan ServerEvent
	done    chan struct{}
	readErr error
}

// Dial connects, performs the HELLO handshake, and starts the event reader.
// onEvent receives every server frame (including rejections and commit
// notifications) in arrival order; it must not block for long or the
// connection's event stream stalls.
func Dial(addr string, onEvent func(ServerEvent)) (*Client, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		c:       c,
		onEvent: onEvent,
		helloCh: make(chan ServerEvent, 1),
		done:    make(chan struct{}),
	}
	go cl.readLoop()
	if err := cl.writeFrame([]byte{MsgHello, ProtoVersion}); err != nil {
		cl.Close()
		return nil, fmt.Errorf("gateway client: hello: %w", err)
	}
	select {
	case <-cl.helloCh:
	case <-cl.done:
		cl.Close()
		return nil, fmt.Errorf("gateway client: connection closed during handshake: %v", cl.readErr)
	case <-time.After(5 * time.Second):
		cl.Close()
		return nil, fmt.Errorf("gateway client: HELLO_ACK timeout")
	}
	return cl, nil
}

// Submit sends one transaction on behalf of (client, seq). The outcome
// arrives asynchronously via OnEvent: MsgAck or MsgReject, then MsgCommit
// once the transaction lands in a committed block.
func (cl *Client) Submit(client, seq uint64, tx []byte) error {
	return cl.writeMsg(MsgSubmit, client, seq, tx)
}

// Read requests a f_c+1-aggregated point read; the answer arrives as
// MsgValue or MsgReadErr carrying the same (client, seq).
func (cl *Client) Read(client, seq uint64, key []byte) error {
	return cl.writeMsg(MsgRead, client, seq, key)
}

func (cl *Client) writeMsg(kind byte, client, seq uint64, payload []byte) error {
	cl.wmu.Lock()
	defer cl.wmu.Unlock()
	b := cl.wbuf[:0]
	b = append(b, 0, 0, 0, 0, kind)
	b = binary.AppendUvarint(b, client)
	b = binary.AppendUvarint(b, seq)
	b = append(b, payload...)
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	cl.wbuf = b
	_, err := cl.c.Write(b)
	return err
}

func (cl *Client) writeFrame(body []byte) error {
	cl.wmu.Lock()
	defer cl.wmu.Unlock()
	b := cl.wbuf[:0]
	b = append(b, 0, 0, 0, 0)
	b = append(b, body...)
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	cl.wbuf = b
	_, err := cl.c.Write(b)
	return err
}

// Values of at most chunkedValueMax bytes are copied into shared chunks of
// valueChunk bytes.
const (
	valueChunk      = 32 << 10
	chunkedValueMax = 4 << 10
)

// ownValue copies a VALUE's payload out of the frame buffer: into the next
// bytes of the current chunk, capacity cut to the length so an append to one
// value can never reach its neighbour, or past chunkedValueMax into an array
// of its own. Nothing writes a chunk's carved bytes again, so a value stays
// its receiver's for as long as it is kept, and a chunk lives while any of
// its values does.
func (cl *Client) ownValue(v []byte) []byte {
	n := len(v)
	switch {
	case n == 0:
		return nil
	case n > chunkedValueMax:
		return bytes.Clone(v)
	}
	if len(cl.chunk) < n {
		cl.chunk = make([]byte, valueChunk)
	}
	out := cl.chunk[:n:n]
	copy(out, v)
	cl.chunk = cl.chunk[n:]
	return out
}

// maxServerFrame bounds one server frame: a length prefix of zero or above it
// ends the event stream.
const maxServerFrame = 1 << 20

// readLoop slices server frames out of one read buffer with the transport's
// FrameReader, so a burst of small frames costs one read syscall, not two per
// frame. A VALUE's payload is copied out of the buffer (ownValue), so OnEvent
// owns what it is handed.
func (cl *Client) readLoop() {
	defer close(cl.done)
	fr := transport.NewFrameReader(cl.c, nil)
	fr.SetMaxFrame(maxServerFrame)
	defer fr.Close()
	for {
		body, err := fr.Next()
		if err != nil {
			cl.readErr = err
			return
		}
		ev, err := parseServerEvent(body)
		if err != nil {
			cl.readErr = err
			return
		}
		if ev.Kind == MsgValue {
			ev.Value = cl.ownValue(ev.Value)
		}
		if ev.Kind == MsgHelloAck {
			select {
			case cl.helloCh <- ev:
			default:
			}
		}
		if cl.onEvent != nil {
			cl.onEvent(ev)
		}
	}
}

// Close tears the connection down; the reader goroutine exits on its own.
func (cl *Client) Close() error {
	err := cl.c.Close()
	<-cl.done
	return err
}

// Err reports the terminal read error after the event stream ends (nil on a
// clean peer close is not distinguished; EOF is the normal shutdown signal).
func (cl *Client) Err() error {
	select {
	case <-cl.done:
		return cl.readErr
	default:
		return nil
	}
}
