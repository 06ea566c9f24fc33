// Package load is the million-client load harness: an open-loop generator
// that models a large population of clients submitting through the gateway
// at a configured aggregate arrival rate, with zipfian key popularity, and
// measures end-to-end commit latency (p50/p99/p999) and goodput under
// overload.
//
// Open loop is the point: arrivals are paced by a clock, not by responses,
// so when the server slows down the offered load does NOT politely slow with
// it — queues grow, rejects appear, and tail latency tells the truth. A
// closed-loop generator (submit, wait, repeat) self-throttles and hides
// exactly the overload behavior `bench -exp gateway` exists to measure
// (coordinated omission).
//
// Clients are simulated: Config.Clients logical client IDs are multiplexed
// over Config.Conns TCP connections, the same way a fleet of edge proxies
// would front a million devices. Admission control sees the logical IDs, so
// per-client token buckets behave as if each device had its own socket.
package load

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"clanbft/internal/execution"
	"clanbft/internal/gateway"
)

// Config parameterizes one load run.
type Config struct {
	// Addr is the gateway to drive.
	Addr string
	// Conns is the number of TCP connections (default 4).
	Conns int
	// Clients is the simulated client population, spread over the
	// connections (default 1000).
	Clients int
	// Rate is the aggregate offered load in transactions/second across all
	// clients — an open-loop arrival rate (default 1000).
	Rate float64
	// Duration is the submission window (default 5s). After it closes the
	// generator stops offering and waits up to Drain for outstanding
	// commits.
	Duration time.Duration
	// Drain bounds the post-run wait for in-flight commits (default 5s).
	Drain time.Duration
	// TxSize pads each transaction's value to roughly this many bytes
	// (default 128).
	TxSize int
	// Keys is the key-space size for zipfian draws (default 65536).
	Keys int
	// ZipfS is the zipf skew parameter; values <= 1 fall back to uniform
	// key popularity (default 1.1 — a hot-key-heavy distribution).
	ZipfS float64
	// ReadFrac is the fraction of operations issued as f_c+1 reads instead
	// of writes (default 0).
	ReadFrac float64
	// Seed makes runs reproducible (default 1).
	Seed int64
	// OnTick, when set, receives a progress callback roughly once per
	// second with the committed count so far.
	OnTick func(elapsed time.Duration, committed uint64)
}

func (c *Config) fill() {
	if c.Conns == 0 {
		c.Conns = 4
	}
	if c.Clients == 0 {
		c.Clients = 1000
	}
	if c.Rate == 0 {
		c.Rate = 1000
	}
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	if c.Drain == 0 {
		c.Drain = 5 * time.Second
	}
	if c.TxSize < 24 {
		c.TxSize = 128 // min 24: the value embeds (conn, client, seq)
	}
	if c.Keys == 0 {
		c.Keys = 65536
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clients < c.Conns {
		c.Clients = c.Conns
	}
}

// Report is the outcome of one run. Goodput counts commits only; rejected
// and lost submissions are the overload shed, not throughput.
type Report struct {
	Offered   uint64 // submissions written to the socket
	Acked     uint64 // admitted by the gateway
	Committed uint64 // commit notifications received
	Rejected  uint64 // total rejects
	RejectsBy map[string]uint64
	ReadsOK   uint64
	ReadsErr  uint64
	ConnErrs  uint64 // connections that died mid-run

	Duration   time.Duration // submission window (excludes drain)
	GoodputTPS float64
	E2E        *Hist // submit → commit notification (client clock)
	AckLat     *Hist // submit → admission verdict
	// SrvCommit is the gateway-reported submit→commit latency carried in
	// each MsgCommit frame (server clock). E2E minus this is the wire and
	// client-side queueing overhead outside the gateway.
	SrvCommit *Hist
}

func (r *Report) String() string {
	return fmt.Sprintf(
		"offered=%d acked=%d committed=%d rejected=%d goodput=%.0f tx/s e2e p50=%v p99=%v p999=%v max=%v srv-commit p50=%v p99=%v",
		r.Offered, r.Acked, r.Committed, r.Rejected, r.GoodputTPS,
		r.E2E.Quantile(0.50).Round(time.Millisecond),
		r.E2E.Quantile(0.99).Round(time.Millisecond),
		r.E2E.Quantile(0.999).Round(time.Millisecond),
		r.E2E.Max().Round(time.Millisecond),
		r.SrvCommit.Quantile(0.50).Round(time.Millisecond),
		r.SrvCommit.Quantile(0.99).Round(time.Millisecond))
}

// pendKey identifies one in-flight operation.
type pendKey struct{ client, seq uint64 }

// connState is one connection's generator state.
type connState struct {
	cl      *gateway.Client
	mu      sync.Mutex
	pending map[pendKey]time.Time
	dead    atomic.Bool
}

// Run drives one load run to completion.
func Run(cfg Config) (*Report, error) {
	cfg.fill()
	rep := &Report{
		RejectsBy: map[string]uint64{},
		E2E:       NewHist(),
		AckLat:    NewHist(),
		SrvCommit: NewHist(),
		Duration:  cfg.Duration,
	}
	var offered, acked, committed, rejected, readsOK, readsErr, connErrs atomic.Uint64
	rejBy := [5]atomic.Uint64{} // indexed by reject reason byte (1..4)

	conns := make([]*connState, cfg.Conns)
	for i := range conns {
		cs := &connState{pending: map[pendKey]time.Time{}}
		onEvent := func(ev gateway.ServerEvent) {
			k := pendKey{ev.Client, ev.Seq}
			switch ev.Kind {
			case gateway.MsgAck:
				cs.mu.Lock()
				at, ok := cs.pending[k]
				cs.mu.Unlock()
				if ok {
					acked.Add(1)
					rep.AckLat.Observe(time.Since(at))
				}
			case gateway.MsgReject:
				cs.mu.Lock()
				at, ok := cs.pending[k]
				if ok {
					delete(cs.pending, k)
				}
				cs.mu.Unlock()
				if ok {
					rejected.Add(1)
					rep.AckLat.Observe(time.Since(at))
					if int(ev.Reason) < len(rejBy) {
						rejBy[ev.Reason].Add(1)
					}
				}
			case gateway.MsgCommit:
				cs.mu.Lock()
				at, ok := cs.pending[k]
				if ok {
					delete(cs.pending, k)
				}
				cs.mu.Unlock()
				if ok {
					committed.Add(1)
					rep.E2E.Observe(time.Since(at))
					rep.SrvCommit.Observe(time.Duration(ev.Latency))
				}
			case gateway.MsgValue:
				readsOK.Add(1)
			case gateway.MsgReadErr:
				readsErr.Add(1)
			}
		}
		cl, err := gateway.Dial(cfg.Addr, onEvent)
		if err != nil {
			for _, prev := range conns[:i] {
				prev.cl.Close()
			}
			return nil, fmt.Errorf("load: dial conn %d: %w", i, err)
		}
		cs.cl = cl
		conns[i] = cs
	}

	// Submission goroutines: one per connection, each an independent
	// open-loop pacer over its share of the rate and client population.
	var wg sync.WaitGroup
	start := time.Now()
	stopTick := make(chan struct{})
	if cfg.OnTick != nil {
		go func() {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-stopTick:
					return
				case <-t.C:
					cfg.OnTick(time.Since(start), committed.Load())
				}
			}
		}()
	}
	for i, cs := range conns {
		wg.Add(1)
		go func(i int, cs *connState) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
			var zipf *rand.Zipf
			if cfg.ZipfS > 1 {
				zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
			}
			nextKey := func() uint64 {
				if zipf != nil {
					return zipf.Uint64()
				}
				return uint64(rng.Intn(cfg.Keys))
			}
			clientLo := uint64(i * cfg.Clients / cfg.Conns)
			clientHi := uint64((i + 1) * cfg.Clients / cfg.Conns)
			nClients := clientHi - clientLo
			rate := cfg.Rate / float64(cfg.Conns)
			seqs := make([]uint64, nClients)
			pad := make([]byte, cfg.TxSize)
			rng.Read(pad)

			// Open-loop pacer: every tick converts elapsed wall time into
			// an arrival budget; we issue that many operations regardless
			// of how the previous ones fared.
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			deadline := start.Add(cfg.Duration)
			var due float64
			last := time.Now()
			rr := uint64(0) // round-robin client cursor
			for now := range tick.C {
				if now.After(deadline) {
					return
				}
				due += now.Sub(last).Seconds() * rate
				last = now
				for ; due >= 1; due-- {
					idx := rr % nClients
					rr++
					client := clientLo + idx
					seq := seqs[idx]
					seqs[idx]++
					key := []byte(fmt.Sprintf("k%06d", nextKey()))
					if cfg.ReadFrac > 0 && rng.Float64() < cfg.ReadFrac {
						if cs.cl.Read(client, seq, key) != nil {
							cs.dead.Store(true)
							connErrs.Add(1)
							return
						}
						continue
					}
					// Value embeds (conn, client, seq) so every
					// transaction is digest-unique — the gateway matches
					// commits back to submitters by content hash.
					val := pad[:cfg.TxSize]
					binary.BigEndian.PutUint64(val, uint64(i))
					binary.BigEndian.PutUint64(val[8:], client)
					binary.BigEndian.PutUint64(val[16:], seq)
					tx := execution.EncodeTx(execution.Tx{Op: execution.OpSet, Key: key, Value: val})
					k := pendKey{client, seq}
					cs.mu.Lock()
					cs.pending[k] = time.Now()
					cs.mu.Unlock()
					if cs.cl.Submit(client, seq, tx) != nil {
						cs.mu.Lock()
						delete(cs.pending, k)
						cs.mu.Unlock()
						cs.dead.Store(true)
						connErrs.Add(1)
						return
					}
					offered.Add(1)
				}
			}
		}(i, cs)
	}
	wg.Wait()

	// Drain: wait for outstanding commits, bounded by cfg.Drain.
	drainDeadline := time.Now().Add(cfg.Drain)
	for time.Now().Before(drainDeadline) {
		n := 0
		for _, cs := range conns {
			cs.mu.Lock()
			n += len(cs.pending)
			cs.mu.Unlock()
		}
		if n == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stopTick)
	for _, cs := range conns {
		cs.cl.Close()
	}

	rep.Offered = offered.Load()
	rep.Acked = acked.Load()
	rep.Committed = committed.Load()
	rep.Rejected = rejected.Load()
	rep.ReadsOK = readsOK.Load()
	rep.ReadsErr = readsErr.Load()
	rep.ConnErrs = connErrs.Load()
	for reason := 1; reason < len(rejBy); reason++ {
		if n := rejBy[reason].Load(); n > 0 {
			rep.RejectsBy[gateway.RejectReason(byte(reason))] = n
		}
	}
	rep.GoodputTPS = float64(rep.Committed) / cfg.Duration.Seconds()
	return rep, nil
}
