package gateway

import (
	"sync"
	"time"
)

// Limits parameterizes admission control. The two layers are independent:
// per-client token buckets bound any single client's submission rate, and
// the global overload signals (mempool depth, exec queue wait, pending cap)
// shed load for everyone once the pipeline itself is the bottleneck. A
// well-provisioned deployment saturates at the first layer — the admission
// edge, not the consensus core, is where excess offered load dies.
type Limits struct {
	// ClientRate is each client's sustained submission budget in
	// transactions per second (default 100).
	ClientRate float64
	// ClientBurst is the bucket depth — how many transactions a client may
	// submit back-to-back after idling (default 2×ClientRate, min 8).
	ClientBurst float64
	// MaxClients bounds the tracked bucket table; beyond it, admitting a
	// new client evicts an arbitrary existing bucket (default 1<<20 —
	// a million concurrent clients at ~48 B each is ~50 MB).
	MaxClients int
	// MempoolHigh is the mempool-depth watermark: submissions are shed
	// with RejectOverload while the true queued depth is above it
	// (default 65536).
	MempoolHigh int
	// QueueWaitHigh sheds load while the exec stage's queue-wait p95 over
	// the last sample window exceeds it — execution lagging ordering means
	// admitted work is already piling up inside the pipeline
	// (default 2 s; 0 keeps the default, <0 disables the signal).
	QueueWaitHigh time.Duration
	// SamplePeriod is the overload monitor's polling interval
	// (default 50 ms).
	SamplePeriod time.Duration
}

// maxPending caps commit-notification state: submissions are shed once this
// many admitted transactions await commit.
const maxPending = 1 << 20

func (l *Limits) fill() {
	if l.ClientRate == 0 {
		l.ClientRate = 100
	}
	if l.ClientBurst == 0 {
		l.ClientBurst = 2 * l.ClientRate
		if l.ClientBurst < 8 {
			l.ClientBurst = 8
		}
	}
	if l.MaxClients == 0 {
		l.MaxClients = 1 << 20
	}
	if l.MempoolHigh == 0 {
		l.MempoolHigh = 65536
	}
	if l.QueueWaitHigh == 0 {
		l.QueueWaitHigh = 2 * time.Second
	}
	if l.SamplePeriod == 0 {
		l.SamplePeriod = 50 * time.Millisecond
	}
}

// bucket is one client's token bucket. Tokens refill continuously at
// rate/sec up to burst; a submission spends one token.
type bucket struct {
	tokens float64
	last   int64 // ns timestamp of the last refill
}

// admitShards spreads the bucket table so concurrent connection readers do
// not serialize on one lock. Power of two; the shard index mixes the client
// ID so adjacent IDs (the common allocation pattern) spread evenly.
const admitShards = 64

type admitShard struct {
	mu      sync.Mutex
	buckets map[uint64]*bucket
}

// Admitter implements the per-client layer: a sharded table of token
// buckets. The zero value is not usable; newAdmitter sizes the shards.
type Admitter struct {
	rate        float64 // tokens per nanosecond
	burst       float64
	maxPerShard int
	shards      [admitShards]admitShard
}

// NewAdmitter builds the token-bucket layer alone — exported for the
// admission-rate benchmark and for embedding outside a full Gateway.
func NewAdmitter(l Limits) *Admitter {
	l.fill()
	a := &Admitter{
		rate:        l.ClientRate / float64(time.Second),
		burst:       l.ClientBurst,
		maxPerShard: (l.MaxClients + admitShards - 1) / admitShards,
	}
	for i := range a.shards {
		a.shards[i].buckets = make(map[uint64]*bucket)
	}
	return a
}

// splitmix64 finalizer: decorrelates client IDs from shard/bucket placement.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TryAdmit spends one token from the client's bucket at time now
// (monotonic nanoseconds; callers pass time.Now().UnixNano() or a virtual
// clock in tests/benchmarks). Returns false when the bucket is empty.
// Allocation-free in steady state: buckets allocate only on first sight of
// a client or after eviction.
func (a *Admitter) TryAdmit(client uint64, now int64) bool {
	sh := &a.shards[mix64(client)&(admitShards-1)]
	sh.mu.Lock()
	b, ok := sh.buckets[client]
	if !ok {
		if len(sh.buckets) >= a.maxPerShard {
			// Table full: drop an arbitrary bucket. An evicted client's
			// next submission re-enters with a fresh (full) bucket — a
			// bounded-memory trade accepted only at MaxClients scale.
			for k := range sh.buckets {
				delete(sh.buckets, k)
				break
			}
		}
		b = &bucket{tokens: a.burst, last: now}
		sh.buckets[client] = b
	}
	if dt := now - b.last; dt > 0 {
		b.tokens += float64(dt) * a.rate
		if b.tokens > a.burst {
			b.tokens = a.burst
		}
		b.last = now
	}
	ok = b.tokens >= 1
	if ok {
		b.tokens--
	}
	sh.mu.Unlock()
	return ok
}

// Clients returns the number of tracked buckets (tests/metrics).
func (a *Admitter) Clients() int {
	n := 0
	for i := range a.shards {
		a.shards[i].mu.Lock()
		n += len(a.shards[i].buckets)
		a.shards[i].mu.Unlock()
	}
	return n
}
