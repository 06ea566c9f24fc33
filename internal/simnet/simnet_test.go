package simnet

import (
	"strings"
	"testing"
	"time"

	"clanbft/internal/types"
)

// msg is a test message carrying size payload bytes.
func msg(size int) types.Message { return numbered(0, size) }

// numbered is a pull reply numbered by its block's round, whose block
// carries size payload bytes.
func numbered(seq uint64, size int) *types.VtxRspMsg {
	blk := &types.Block{Round: types.Round(seq)}
	if size > 0 {
		blk.Txs = [][]byte{make([]byte, size)}
	}
	return &types.VtxRspMsg{Vertex: &types.Vertex{Round: blk.Round}, Block: blk}
}

// seqOf is the number a numbered message carries.
func seqOf(m types.Message) uint64 { return uint64(m.(*types.VtxRspMsg).Block.Round) }

type rcv struct {
	at   time.Duration
	from types.NodeID
}

func record(n *Net, id types.NodeID) *[]rcv {
	var got []rcv
	n.Endpoint(id).SetHandler(func(from types.NodeID, m types.Message) {
		got = append(got, rcv{at: n.Now(), from: from})
	})
	return &got
}

func TestLatencyMatchesMatrix(t *testing.T) {
	// Two nodes in regions 0 and 2: Table 1 says us-east1 <-> europe-north1
	// RTT is 114.75 ms, so one-way ~57.4 ms.
	n := New(Config{N: 2, Regions: []int{0, 2}, JitterPct: -1, Seed: 1})
	got := record(n, 1)
	n.Endpoint(0).SetHandler(func(types.NodeID, types.Message) {})
	n.Endpoint(0).Send(1, msg(100))
	n.Run(200 * time.Millisecond)
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages", len(*got))
	}
	owl := (*got)[0].at
	want := time.Duration(114.75 / 2 * float64(time.Millisecond))
	if diff := owl - want; diff < 0 || diff > time.Millisecond {
		t.Fatalf("one-way latency %v, want ~%v", owl, want)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1 Gbps NIC, two 1.25 MB messages to the same peer: the second is
	// delayed a full extra serialization time (10 ms each at 1 Gbps),
	// and receive-side store-and-forward adds another serialization.
	n := New(Config{N: 2, BandwidthBps: 1e9, JitterPct: -1, Seed: 1})
	got := record(n, 1)
	size := 1250000 // 10 ms at 1 Gbps
	n.Endpoint(0).Send(1, msg(size))
	n.Endpoint(0).Send(1, msg(size))
	n.Run(time.Second)
	if len(*got) != 2 {
		t.Fatalf("delivered %d", len(*got))
	}
	d1, d2 := (*got)[0].at, (*got)[1].at
	// First: ~10ms tx + ~0.375ms owl + ~10ms rx = ~20ms.
	if d1 < 19*time.Millisecond || d1 > 22*time.Millisecond {
		t.Fatalf("first delivery at %v", d1)
	}
	gap := d2 - d1
	if gap < 9*time.Millisecond || gap > 12*time.Millisecond {
		t.Fatalf("second delivery gap %v, want ~10ms", gap)
	}
}

func TestBroadcastSharesNIC(t *testing.T) {
	// Broadcasting a large message to 9 peers serializes through one NIC:
	// the last delivery must be ~9x the per-copy serialization later than
	// the first.
	n := New(Config{N: 10, BandwidthBps: 1e9, JitterPct: -1, Seed: 1})
	var times []time.Duration
	for i := 1; i < 10; i++ {
		id := types.NodeID(i)
		n.Endpoint(id).SetHandler(func(types.NodeID, types.Message) {
			times = append(times, n.Now())
		})
	}
	n.Endpoint(0).SetHandler(func(types.NodeID, types.Message) {})
	n.Endpoint(0).Broadcast(msg(1250000)) // 10 ms per copy
	n.Run(time.Second)
	if len(times) != 9 {
		t.Fatalf("delivered %d", len(times))
	}
	min, max := times[0], times[0]
	for _, x := range times {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	spread := max - min
	if spread < 70*time.Millisecond || spread > 100*time.Millisecond {
		t.Fatalf("broadcast spread %v, want ~80ms", spread)
	}
}

func TestSelfSendImmediate(t *testing.T) {
	n := New(Config{N: 1, Seed: 1})
	got := record(n, 0)
	n.Endpoint(0).Send(0, msg(1000000))
	n.Run(time.Millisecond)
	if len(*got) != 1 {
		t.Fatal("self-send not delivered")
	}
	if (*got)[0].at > 500*time.Microsecond {
		t.Fatalf("self-send took %v", (*got)[0].at)
	}
	if st := n.Endpoint(0).Stats(); st.MsgsSent != 0 || st.MsgsRecv != 0 {
		t.Fatal("self traffic must not be counted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []rcv {
		n := New(Config{N: 5, Regions: EvenRegions(5, 5), Seed: 42})
		var got []rcv
		for i := 0; i < 5; i++ {
			id := types.NodeID(i)
			n.Endpoint(id).SetHandler(func(from types.NodeID, m types.Message) {
				got = append(got, rcv{at: n.Now(), from: from})
				// Ping-pong a little extra traffic.
				if seq := seqOf(m); seq < 3 {
					n.Endpoint(id).Broadcast(numbered(seq+1, 0))
				}
			})
		}
		n.Endpoint(0).Broadcast(numbered(0, 0))
		n.Run(2 * time.Second)
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTimers(t *testing.T) {
	n := New(Config{N: 1, Seed: 1})
	n.Endpoint(0).SetHandler(func(types.NodeID, types.Message) {})
	clk := n.Clock(0)
	var fired []time.Duration
	clk.After(50*time.Millisecond, func() { fired = append(fired, clk.Now()) })
	clk.After(10*time.Millisecond, func() { fired = append(fired, clk.Now()) })
	stopped := clk.After(30*time.Millisecond, func() { t.Error("stopped timer fired") })
	if !stopped.Stop() {
		t.Fatal("Stop returned false before fire")
	}
	// A long timer lands in the overflow heap (beyond the 4s wheel).
	clk.After(6*time.Second, func() { fired = append(fired, clk.Now()) })
	n.Run(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d timers, want 3", len(fired))
	}
	if fired[0] != 10*time.Millisecond || fired[1] != 50*time.Millisecond || fired[2] != 6*time.Second {
		t.Fatalf("fire times %v", fired)
	}
	if stopped.Stop() {
		t.Fatal("Stop after cancellation must return false")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	n := New(Config{N: 1, Seed: 1})
	clk := n.Clock(0)
	fired := false
	tm := clk.After(time.Millisecond, func() { fired = true })
	n.Run(10 * time.Millisecond)
	if !fired {
		t.Fatal("timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire must return false")
	}
}

func TestCPUCharge(t *testing.T) {
	// Node 1 charges 5 ms per message; a burst of messages must be
	// processed sequentially 5 ms apart.
	n := New(Config{N: 2, JitterPct: -1, Seed: 1})
	var times []time.Duration
	n.Endpoint(1).SetHandler(func(from types.NodeID, m types.Message) {
		times = append(times, n.Now())
		n.Clock(1).Charge(5 * time.Millisecond)
	})
	for i := 0; i < 4; i++ {
		n.Endpoint(0).Send(1, msg(100))
	}
	n.Run(time.Second)
	if len(times) != 4 {
		t.Fatalf("processed %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap < 4*time.Millisecond || gap > 7*time.Millisecond {
			t.Fatalf("processing gap %d = %v, want ~5ms", i, gap)
		}
	}
}

func TestChargeDelaysEmission(t *testing.T) {
	// A message emitted after Charge(10ms) within a handler leaves 10ms
	// later.
	n := New(Config{N: 3, JitterPct: -1, Seed: 1})
	n.Endpoint(1).SetHandler(func(from types.NodeID, m types.Message) {
		n.Clock(1).Charge(10 * time.Millisecond)
		n.Endpoint(1).Send(2, msg(10))
	})
	got := record(n, 2)
	n.Endpoint(0).Send(1, msg(10))
	n.Run(time.Second)
	if len(*got) != 1 {
		t.Fatal("no delivery")
	}
	// ~0.375ms owl + 10ms charge + ~0.375ms owl.
	at := (*got)[0].at
	if at < 10*time.Millisecond || at > 12*time.Millisecond {
		t.Fatalf("delivery at %v, want ~10.75ms", at)
	}
}

// TestSimnetDrainHook: the drain hook runs once after a single message, once
// after the last message of a batched arrival (not before), once after a
// timer, and before a batched arrival pauses for a busy CPU; what it sends
// leaves after the CPU its drain charged.
func TestSimnetDrainHook(t *testing.T) {
	// log records node 1's handler calls ("m"), timer callbacks ("t") and
	// drain ends ("d") in order.
	setup := func(cfg Config) (*Net, *[]string) {
		cfg.N, cfg.Seed, cfg.JitterPct, cfg.LatencyRTTms = 3, 1, -1, [][]float64{{1}}
		n := New(cfg)
		var log []string
		n.Endpoint(1).SetHandler(func(types.NodeID, types.Message) { log = append(log, "m") })
		n.Endpoint(1).SetDrainHook(func() { log = append(log, "d") })
		return n, &log
	}
	check := func(name string, log *[]string, want string) {
		t.Helper()
		if got := strings.Join(*log, ""); got != want {
			t.Fatalf("%s: handler/timer/drain sequence %q, want %q", name, got, want)
		}
	}

	n, log := setup(Config{})
	n.Endpoint(0).Send(1, msg(10))
	n.Run(10 * time.Millisecond)
	check("single message", log, "md")

	const k = 5
	n, log = setup(Config{BatchWindow: time.Millisecond})
	for i := 0; i < k; i++ {
		n.Endpoint(0).Send(1, numbered(uint64(i), 0))
	}
	n.Run(10 * time.Millisecond)
	check("batched arrival", log, strings.Repeat("m", k)+"d")

	n, log = setup(Config{})
	n.Clock(1).After(time.Millisecond, func() { *log = append(*log, "t") })
	n.Run(10 * time.Millisecond)
	check("timer", log, "td")

	// The first message of a batch keeps the CPU busy for 5 ms: the drain
	// ends before the pause, and again after the rest.
	n, log = setup(Config{BatchWindow: time.Millisecond})
	n.Endpoint(1).SetHandler(func(types.NodeID, types.Message) {
		if len(*log) == 0 {
			n.Clock(1).Charge(5 * time.Millisecond)
		}
		*log = append(*log, "m")
	})
	for i := 0; i < 3; i++ {
		n.Endpoint(0).Send(1, numbered(uint64(i), 0))
	}
	n.Run(20 * time.Millisecond)
	check("busy CPU", log, "mdmmd")

	// A 10 ms handler call and a 1 ms hook: the hook's send leaves 11 ms
	// after the message arrived.
	n, _ = setup(Config{})
	var handled, heard time.Duration
	n.Endpoint(1).SetHandler(func(types.NodeID, types.Message) {
		handled = n.Now()
		n.Clock(1).Charge(10 * time.Millisecond)
	})
	n.Endpoint(1).SetDrainHook(func() {
		n.Clock(1).Charge(time.Millisecond)
		n.Endpoint(1).Send(2, msg(10))
	})
	n.Endpoint(2).SetHandler(func(types.NodeID, types.Message) { heard = n.Now() })
	n.Endpoint(0).Send(1, msg(10))
	n.Run(50 * time.Millisecond)
	owl := 500 * time.Microsecond
	if want := handled + 11*time.Millisecond + owl; heard < want || heard > want+100*time.Microsecond {
		t.Fatalf("the hook's send arrived at %v, want %v: the message arrived at %v, its handler charged 10 ms and the hook 1 ms",
			heard, want, handled)
	}
}

func TestByteAccounting(t *testing.T) {
	n := New(Config{N: 3, Seed: 1})
	for i := 0; i < 3; i++ {
		n.Endpoint(types.NodeID(i)).SetHandler(func(types.NodeID, types.Message) {})
	}
	m := msg(1000)
	n.Endpoint(0).Multicast([]types.NodeID{1, 2}, m)
	n.Run(100 * time.Millisecond)
	if n.TotalMsgs()[types.KindVtxRsp] != 2 {
		t.Fatalf("msgs = %d", n.TotalMsgs()[types.KindVtxRsp])
	}
	want := uint64(2 * m.WireSize())
	if n.TotalBytes()[types.KindVtxRsp] != want {
		t.Fatalf("bytes = %d, want %d", n.TotalBytes()[types.KindVtxRsp], want)
	}
	st := n.Endpoint(1).Stats()
	if st.MsgsRecv != 1 || st.BytesRecv != uint64(m.WireSize()) {
		t.Fatalf("recv stats %+v", st)
	}
}

func TestRunUntilIdle(t *testing.T) {
	n := New(Config{N: 2, Seed: 1})
	got := record(n, 1)
	n.Endpoint(0).SetHandler(func(types.NodeID, types.Message) {})
	n.Endpoint(0).Send(1, msg(10))
	n.Clock(0).After(7*time.Second, func() { n.Endpoint(0).Send(1, msg(10)) })
	n.RunUntilIdle()
	if len(*got) != 2 {
		t.Fatalf("delivered %d", len(*got))
	}
	if n.Pending() != 0 {
		t.Fatalf("pending = %d", n.Pending())
	}
}

// BenchmarkEventThroughput measures raw simulator event throughput with a
// ping-pong workload.
func BenchmarkEventThroughput(b *testing.B) {
	n := New(Config{N: 2, Seed: 1, JitterPct: -1})
	count := 0
	n.Endpoint(1).SetHandler(func(from types.NodeID, m types.Message) {
		count++
		n.Endpoint(1).Send(0, m)
	})
	n.Endpoint(0).SetHandler(func(from types.NodeID, m types.Message) {
		count++
		n.Endpoint(0).Send(1, m)
	})
	n.Endpoint(0).Send(1, msg(100))
	b.ResetTimer()
	for count < b.N {
		n.Run(100 * time.Millisecond)
	}
}

// TestTimerEventRecycled: a timer is a pooled event, so an arm allocates
// nothing once the pool is warm, and a handle kept past its arm — the event
// fired and was re-armed since — stops nothing: its successor still fires.
func TestTimerEventRecycled(t *testing.T) {
	n := New(Config{N: 1, Seed: 1})
	n.Endpoint(0).SetHandler(func(types.NodeID, types.Message) {})
	clk := n.Clock(0)
	fired := 0
	fn := func() { fired++ }
	first := clk.After(time.Millisecond, fn)
	n.Run(2 * time.Millisecond)
	second := clk.After(time.Millisecond, fn)
	if first.Stop() {
		t.Fatal("a fired timer's handle stopped its successor")
	}
	n.Run(2 * time.Millisecond)
	if fired != 2 {
		t.Fatalf("%d callbacks ran, want 2", fired)
	}
	if second.Stop() {
		t.Fatal("Stop after fire must return false")
	}
	arm := func() {
		clk.After(time.Millisecond, fn)
		n.Run(2 * time.Millisecond)
	}
	for i := 0; i < 2100; i++ {
		arm() // one turn of the wheel: every bucket an arm lands in has its buffer
	}
	if allocs := testing.AllocsPerRun(100, arm); allocs > 0 {
		t.Fatalf("an arm allocates %.1f, want 0", allocs)
	}
}
