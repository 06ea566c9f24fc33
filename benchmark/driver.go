package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"syscall"
	"time"

	"clanbft/internal/gateway"
)

// processStart is the origin of every timestamp the benchmark records: one
// monotonic clock shared by pacers, client readers and commit hooks.
var processStart = time.Now()

func sinceStart() int64 { return int64(time.Since(processStart)) }

const (
	// auxBase starts the seq range of operations outside the open loop
	// (boot probe, read-only prefill, read probes); their events go to
	// connState.aux instead of the per-op tables.
	auxBase = 1 << 40
	// burstCap bounds the closed-loop burst's operations per connection.
	burstCap         = 1 << 20
	burstOutstanding = 1024
	burstLength      = 4 * time.Second
	drainLimit       = 8 * time.Second
	// traceEvery: while tracing, one write in this many gets a span tree.
	traceEvery = 64
)

// Operation outcomes. Anything but stOK (or still stPending when drain ends)
// is a failed operation.
const (
	stPending uint8 = iota
	stOK
	stRejected
	stReadErr
	stBadValue
)

type auxEvent struct {
	ev gateway.ServerEvent
	at int64
}

// connState is one client connection: its pre-generated operations, the
// tables its pacer and its event reader fill, and the closed-loop burst's
// bookkeeping. Each table entry has one writer, and the tables are read only
// after the connection is closed.
type connState struct {
	id int
	in *inputs
	cl *gateway.Client
	fc int // f_c of the gateway's clan: a VALUE needs fc+1 matching replies

	sent   []int64 // write started, ns since processStart
	done   []int64 // COMMIT, VALUE, REJECT or READERR read
	status []uint8

	// Traced run only: while tracing is on, every write records these.
	tracing *atomic.Bool
	subRet  []int64 // Submit returned
	ackAt   []int64 // ACK read
	srvLat  []int64 // ServerEvent.Latency of the COMMIT

	commits  atomic.Int64 // COMMIT frames of open-loop writes read so far
	answered atomic.Int64 // open-loop operations with a final reply
	dupes    int          // second COMMIT/VALUE for one operation
	sendErr  error

	aux chan auxEvent // sized for the largest aux batch (prefill)

	burstSlots  chan struct{}
	burstDone   []uint8 // COMMIT read for burst op i
	burstCommit atomic.Int64
	burstFailed atomic.Int64
}

func newConnState(id int, in *inputs) *connState {
	return &connState{id: id, in: in, aux: make(chan auxEvent, 1024)}
}

// arm allocates the tables for the measured cluster; boots that only time
// set-up skip it. tr is nil outside a traced run.
func (c *connState) arm(tr *tracer) {
	n := len(c.in.ops[c.id])
	c.sent = make([]int64, n)
	c.done = make([]int64, n)
	c.status = make([]uint8, n)
	if tr != nil {
		c.tracing = &tr.on
		c.subRet = make([]int64, n)
		c.ackAt = make([]int64, n)
		c.srvLat = make([]int64, n)
		c.burstSlots = make(chan struct{}, burstOutstanding)
		c.burstDone = make([]uint8, burstCap)
	}
}

// onEvent runs on the client's reader goroutine for every server frame.
func (c *connState) onEvent(ev gateway.ServerEvent) {
	if ev.Kind == gateway.MsgHelloAck {
		return
	}
	now := sinceStart()
	if ev.Seq >= auxBase {
		c.aux <- auxEvent{ev, now}
		return
	}
	i := int(ev.Seq)
	if i >= len(c.status) {
		c.onBurstEvent(i-len(c.status), ev)
		return
	}
	switch ev.Kind {
	case gateway.MsgAck:
		if c.ackAt != nil && c.tracing.Load() {
			c.ackAt[i] = now
		}
		return
	case gateway.MsgCommit:
		if c.status[i] != stPending {
			c.dupes++
			return
		}
		c.status[i] = stOK
		if c.srvLat != nil {
			c.srvLat[i] = int64(ev.Latency)
		}
		c.commits.Add(1)
	case gateway.MsgValue:
		if c.status[i] != stPending {
			c.dupes++
			return
		}
		c.status[i] = stOK
		if int(ev.Quorum) < c.fc+1 || !bytes.Equal(ev.Value, c.in.ro[c.in.ops[c.id][i].key]) {
			c.status[i] = stBadValue
		}
	case gateway.MsgReject:
		c.status[i] = stRejected
	case gateway.MsgReadErr:
		c.status[i] = stReadErr
	}
	c.done[i] = now
	c.answered.Add(1)
}

func (c *connState) onBurstEvent(i int, ev gateway.ServerEvent) {
	switch ev.Kind {
	case gateway.MsgCommit:
		if i < len(c.burstDone) {
			c.burstDone[i]++
		}
		c.burstCommit.Add(1)
	case gateway.MsgReject:
		c.burstFailed.Add(1)
	default:
		return
	}
	<-c.burstSlots
}

// pace sends the connection's operations at their due times. clock is when
// the open loop started, in ns since processStart. Latency is later charged
// from due, so a late generator shows in the numbers instead of hiding in them.
func (c *connState) pace(clock int64) {
	ops := c.in.ops[c.id]
	buf := make([]byte, 0, c.in.w.value+64)
	for i := range ops {
		o := &ops[i]
		if d := clock + o.due - sinceStart(); d > 0 {
			sleepPrecise(d)
		}
		c.sent[i] = sinceStart()
		client := uint64(c.id*clientsPerConn) + uint64(o.client)
		var err error
		if o.kind == opRead {
			buf = appendKey(buf[:0], 'r', o.key)
			err = c.cl.Read(client, uint64(i), buf)
		} else {
			buf = c.in.appendWrite(buf[:0], 'w', o.key, byte(c.id), uint32(i))
			err = c.cl.Submit(client, uint64(i), buf)
			if c.subRet != nil && c.tracing.Load() {
				c.subRet[i] = sinceStart()
			}
		}
		if err != nil {
			c.sendErr = fmt.Errorf("conn %d op %d: %w", c.id, i, err)
			return
		}
	}
}

// sleepPrecise blocks the calling thread for d nanoseconds. time.Sleep on an
// idle runtime wakes through epoll's millisecond timeout, which would make
// every operation half a millisecond late on average; nanosleep does not.
func sleepPrecise(d int64) {
	ts := syscall.NsecToTimespec(d)
	syscall.Nanosleep(&ts, nil)
}

// burst keeps burstOutstanding writes in flight for burstLength: the
// closed-loop saturation probe behind client.sat_tps.
func (c *connState) burst() {
	base := len(c.status)
	keys := c.in.burstKeys[c.id]
	buf := make([]byte, 0, c.in.w.value+64)
	deadline := time.Now().Add(burstLength)
	for i := 0; i < burstCap && time.Now().Before(deadline); i++ {
		c.burstSlots <- struct{}{}
		idx := base + i
		buf = c.in.appendWrite(buf[:0], 'w', keys[i%len(keys)], byte(c.id), uint32(idx))
		if err := c.cl.Submit(uint64(c.id*clientsPerConn+i%clientsPerConn), uint64(idx), buf); err != nil {
			c.sendErr = fmt.Errorf("conn %d burst op %d: %w", c.id, i, err)
			return
		}
	}
}

// awaitAux collects n aux events of the given kind, or fails after timeout.
func (c *connState) awaitAux(n int, timeout time.Duration, kind byte) ([]auxEvent, error) {
	var got []auxEvent
	deadline := time.After(timeout)
	for len(got) < n {
		select {
		case e := <-c.aux:
			if e.ev.Kind == kind {
				got = append(got, e)
			}
			if e.ev.Kind == gateway.MsgReject || e.ev.Kind == gateway.MsgReadErr {
				return got, fmt.Errorf("conn %d: aux op %d refused (kind 0x%x reason %d)", c.id, e.ev.Seq-auxBase, e.ev.Kind, e.ev.Reason)
			}
		case <-deadline:
			return got, fmt.Errorf("conn %d: %d of %d aux replies after %v", c.id, len(got), n, timeout)
		}
	}
	return got, nil
}
