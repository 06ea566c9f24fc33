package gateway

import (
	"bytes"
	"sync/atomic"
	"time"
)

// StateReader answers a point read against one replica's executed state.
// Version is the write-version of the key (monotone per key under the
// deterministic executor), which lets the aggregator distinguish "same value
// at the same height" from a stale replica that happens to hold equal bytes
// from an older write. ok=false means the key is absent on that replica.
type StateReader interface {
	ReadKey(key []byte) (value []byte, version uint64, ok bool)
}

// StateReaderFunc adapts a closure to StateReader.
type StateReaderFunc func(key []byte) ([]byte, uint64, bool)

// ReadKey implements StateReader.
func (f StateReaderFunc) ReadKey(key []byte) ([]byte, uint64, bool) { return f(key) }

// ReadConfig wires the gateway's read path. Reads bypass consensus entirely:
// the paper's clan model answers them with f_c+1 matching responses from clan
// members, which is sound because any f_c+1 set contains at least one honest
// replica, and honest replicas agree on executed state at a given version.
type ReadConfig struct {
	// Responders are the replicas the gateway can consult. The first entry
	// conventionally is the gateway's own node (always consulted first).
	Responders []StateReader
	// FaultBound is f_c for the serving clan; a read needs FaultBound+1
	// matching (version, value) responses.
	FaultBound int
	// Timeout bounds one aggregated read (default 1s). Responders that do
	// not answer in time simply don't contribute to the quorum.
	Timeout time.Duration
}

// readResult is one aggregated read outcome.
type readResult struct {
	value   []byte
	version uint64
	found   bool // false: quorum agreed the key is absent
	quorum  int  // matching responses backing the answer
	errCode byte // 0 on success, else ReadNoQuorum / ReadTimeout
}

type readResp struct {
	value   []byte
	version uint64
	ok      bool
}

// readAnswer is responder from's reply to one poll.
type readAnswer struct {
	from int
	readResp
}

// repollEvery paces the re-polls of a read whose responders straddle a
// commit: the laggards are at most an execution hand-off behind.
const repollEvery = 2 * time.Millisecond

// readOp is one READ's working state, made once and recycled. Its aggregator
// and every poll in flight hold a reference, and it goes back to its
// connection when the last lets go: a quorum reached on two answers must not
// hand the third responder's late answer to the next read.
type readOp struct {
	g           *Gateway // nil under a bare aggregateRead
	conn        *gwConn
	client, seq uint64
	cfg         ReadConfig
	key         []byte
	ch          chan readAnswer // a responder has at most one call in flight, so sends never block
	latest      []readResp      // each responder's most recent answer
	answered    []bool
	asks        []func() // asks[i] polls responder i
	serve       func()   // op.handle
	deadline    *time.Timer
	refs        atomic.Int32
}

func newReadOp(cfg ReadConfig) *readOp {
	n := len(cfg.Responders)
	op := &readOp{cfg: cfg, ch: make(chan readAnswer, n), latest: make([]readResp, n),
		answered: make([]bool, n), asks: make([]func(), n)}
	for i := range op.asks {
		op.asks[i] = func() {
			v, ver, ok := cfg.Responders[i].ReadKey(op.key)
			op.ch <- readAnswer{i, readResp{value: v, version: ver, ok: ok}}
			op.unref()
		}
	}
	op.serve = op.handle
	return op
}

// unref drops one reference; the last one empties the operation, answers that
// came after the quorum included, and recycles it.
func (op *readOp) unref() {
	if op.refs.Add(-1) != 0 {
		return
	}
	for len(op.ch) > 0 {
		<-op.ch
	}
	clear(op.latest)
	clear(op.answered)
	if c := op.conn; c != nil {
		c.mu.Lock()
		c.reads = append(c.reads, op)
		c.mu.Unlock()
	}
}

// aggregateRead is one read on an operation of its own.
func aggregateRead(cfg ReadConfig, key []byte) readResult {
	op := newReadOp(cfg)
	op.key = key
	op.refs.Store(1)
	defer op.unref()
	return op.aggregate()
}

// aggregate fans the key out to every responder and returns as soon as
// f_c+1 of them agree on (found, version, value). Responders run on their own
// goroutines so one slow replica cannot stall the read past Timeout.
//
// A key with a write in flight splits honest responders across the commit.
// So when every responder has answered and no group has f_c+1, the ones below
// the highest version seen are asked again, until f_c+1 agree or Timeout
// expires (ReadNoQuorum). And "absent" is never the answer while any
// responder reports the key present: the f_c+1 that have not executed the
// write yet must not outvote the one that has.
func (op *readOp) aggregate() readResult {
	need, latest, answered := op.cfg.FaultBound+1, op.latest, op.answered
	if need > len(latest) {
		return readResult{errCode: ReadNoQuorum}
	}
	timeout := op.cfg.Timeout
	if timeout == 0 {
		timeout = time.Second
	}
	inflight := 0
	poll := func(i int) {
		inflight++
		op.refs.Add(1)
		go op.asks[i]()
	}
	for i := range latest {
		poll(i)
	}
	if op.deadline == nil {
		op.deadline = time.NewTimer(timeout)
	} else {
		op.deadline.Reset(timeout)
	}
	expired := false
	defer func() {
		// go.mod says go 1.22: a timer that fired unread keeps its tick.
		if !expired && !op.deadline.Stop() {
			<-op.deadline.C
		}
	}()
	var repoll <-chan time.Time // armed while every responder has answered without a quorum
	for {
		select {
		case a := <-op.ch:
			inflight--
			latest[a.from], answered[a.from] = a.readResp, true
			if res, ok := readQuorum(latest, answered, need); ok {
				return res
			}
			if inflight == 0 {
				repoll = time.After(repollEvery)
			}
		case <-repoll:
			var top uint64
			for i := range latest {
				if latest[i].ok && latest[i].version > top {
					top = latest[i].version
				}
			}
			for i := range latest {
				if !latest[i].ok || latest[i].version < top {
					poll(i)
				}
			}
			if inflight == 0 {
				// Same version everywhere, different bytes: asking again
				// cannot change it.
				return readResult{errCode: ReadNoQuorum}
			}
		case <-op.deadline.C:
			expired = true
			for _, ok := range answered {
				if !ok {
					return readResult{errCode: ReadTimeout}
				}
			}
			return readResult{errCode: ReadNoQuorum}
		}
	}
}

// readQuorum looks for need matching answers among those in: the group at
// the highest version that has them, else "absent" when need responders say
// so and none says otherwise. With small quorums (f_c is 1–2 in every
// deployment the paper sizes) comparing every pair is cheaper than hashing
// the values.
func readQuorum(latest []readResp, answered []bool, need int) (readResult, bool) {
	var best readResult
	absent, present := 0, false
	for i := range latest {
		if !answered[i] {
			continue
		}
		r := &latest[i]
		if !r.ok {
			absent++
			continue
		}
		present = true
		count := 0
		for j := range latest {
			o := &latest[j]
			if answered[j] && o.ok && o.version == r.version && bytes.Equal(o.value, r.value) {
				count++
			}
		}
		if count >= need && (best.quorum == 0 || r.version > best.version) {
			best = readResult{value: r.value, version: r.version, found: true, quorum: count}
		}
	}
	if best.quorum > 0 {
		return best, true
	}
	if !present && absent >= need {
		return readResult{quorum: absent}, true
	}
	return readResult{}, false
}
