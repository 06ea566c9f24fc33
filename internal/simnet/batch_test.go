package simnet

import (
	"testing"
	"time"

	"clanbft/internal/types"
)

// TestBatchingCoalesces: with a batch window, many small messages to the
// same destination arrive as one frame (one rx event), in order, with at
// most the window's extra delay.
func TestBatchingCoalesces(t *testing.T) {
	n := New(Config{N: 2, Seed: 1, JitterPct: -1, BatchWindow: 2 * time.Millisecond})
	var got []uint64
	var at []time.Duration
	n.Endpoint(1).SetHandler(func(from types.NodeID, m types.Message) {
		got = append(got, seqOf(m))
		at = append(at, n.Now())
	})
	for i := 0; i < 10; i++ {
		n.Endpoint(0).Send(1, numbered(uint64(i), 0))
	}
	n.Run(100 * time.Millisecond)
	if len(got) != 10 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("order broken: %v", got)
		}
	}
	// All delivered together, ~owl (0.375ms) + window (2ms).
	if at[9]-at[0] > time.Duration(float64(time.Millisecond)) {
		t.Fatalf("batch spread %v", at[9]-at[0])
	}
	if at[0] < 2*time.Millisecond || at[0] > 4*time.Millisecond {
		t.Fatalf("first delivery at %v, want ~2.4ms", at[0])
	}
}

// TestBatchBypassKeepsFIFO: a large message sent after small ones must not
// overtake them.
func TestBatchBypassKeepsFIFO(t *testing.T) {
	n := New(Config{N: 2, Seed: 1, JitterPct: -1, BatchWindow: 5 * time.Millisecond})
	var got []uint64
	n.Endpoint(1).SetHandler(func(from types.NodeID, m types.Message) {
		got = append(got, seqOf(m))
	})
	n.Endpoint(0).Send(1, numbered(1, 0))
	n.Endpoint(0).Send(1, numbered(2, 64<<10))
	n.Endpoint(0).Send(1, numbered(3, 0))
	n.Run(100 * time.Millisecond)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v, want [1 2 3]", got)
	}
}

// TestBatchingPreservesProtocolResults: byte accounting identical with and
// without batching.
func TestBatchingByteAccounting(t *testing.T) {
	run := func(window time.Duration) uint64 {
		n := New(Config{N: 3, Seed: 1, BatchWindow: window})
		for i := 0; i < 3; i++ {
			n.Endpoint(types.NodeID(i)).SetHandler(func(types.NodeID, types.Message) {})
		}
		for i := 0; i < 20; i++ {
			n.Endpoint(0).Broadcast(numbered(uint64(i), 0))
		}
		n.Run(time.Second)
		return n.Endpoint(0).Stats().BytesSent
	}
	if a, b := run(0), run(time.Millisecond); a != b {
		t.Fatalf("bytes differ with batching: %d vs %d", a, b)
	}
}

// TestPerFlowPacing: with a small TCP window, one flow cannot exceed
// window/RTT even though the NIC is fast.
func TestPerFlowPacing(t *testing.T) {
	// RTT 100 ms, window 1 MB -> flow rate 10 MB/s. A 5 MB message takes
	// ~500 ms of flow serialization + 50 ms one-way latency.
	n := New(Config{
		N: 2, LatencyRTTms: [][]float64{{100}}, JitterPct: -1, Seed: 1,
		BandwidthBps: 16e9, PerFlowWindow: 1 << 20,
	})
	var at time.Duration
	n.Endpoint(1).SetHandler(func(types.NodeID, types.Message) { at = n.Now() })
	n.Endpoint(0).Send(1, msg(5<<20))
	n.Run(2 * time.Second)
	if at < 520*time.Millisecond || at > 640*time.Millisecond {
		t.Fatalf("flow-paced delivery at %v, want ~550ms", at)
	}

	// Two flows to DIFFERENT destinations run in parallel (independent
	// windows), so the second arrives at about the same time.
	n2 := New(Config{
		N: 3, LatencyRTTms: [][]float64{{100}}, JitterPct: -1, Seed: 1,
		BandwidthBps: 16e9, PerFlowWindow: 1 << 20,
	})
	var at1, at2 time.Duration
	n2.Endpoint(1).SetHandler(func(types.NodeID, types.Message) { at1 = n2.Now() })
	n2.Endpoint(2).SetHandler(func(types.NodeID, types.Message) { at2 = n2.Now() })
	n2.Endpoint(0).Send(1, msg(5<<20))
	n2.Endpoint(0).Send(2, msg(5<<20))
	n2.Run(2 * time.Second)
	if at1 == 0 || at2 == 0 {
		t.Fatal("not delivered")
	}
	if diff := at2 - at1; diff < 0 || diff > 100*time.Millisecond {
		t.Fatalf("parallel flows serialized: %v vs %v", at1, at2)
	}

	// Same destination: the second message queues behind the first on the
	// same flow (~500 ms later).
	n3 := New(Config{
		N: 2, LatencyRTTms: [][]float64{{100}}, JitterPct: -1, Seed: 1,
		BandwidthBps: 16e9, PerFlowWindow: 1 << 20,
	})
	var times []time.Duration
	n3.Endpoint(1).SetHandler(func(types.NodeID, types.Message) { times = append(times, n3.Now()) })
	n3.Endpoint(0).Send(1, msg(5<<20))
	n3.Endpoint(0).Send(1, msg(5<<20))
	n3.Run(3 * time.Second)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if gap := times[1] - times[0]; gap < 400*time.Millisecond || gap > 600*time.Millisecond {
		t.Fatalf("same-flow gap %v, want ~500ms", gap)
	}
}

// TestSameSlotSchedulingRunsPromptly regression-tests the timing-wheel bug
// where an event scheduled into the currently processed quantum (e.g. a
// zero-delay self-send from within a handler) was deferred a full wheel
// revolution.
func TestSameSlotSchedulingRunsPromptly(t *testing.T) {
	n := New(Config{N: 2, JitterPct: -1, Seed: 1})
	hops := 0
	n.Endpoint(0).SetHandler(func(from types.NodeID, m types.Message) {
		if hops < 10 {
			hops++
			n.Endpoint(0).Send(0, m) // zero-delay self-chain
		}
	})
	n.Endpoint(1).SetHandler(func(types.NodeID, types.Message) {})
	n.Endpoint(0).Send(0, msg(10))
	n.Run(50 * time.Millisecond)
	if hops != 10 {
		t.Fatalf("self-send chain progressed %d hops in 50ms, want 10", hops)
	}
}
