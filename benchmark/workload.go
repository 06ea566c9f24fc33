package main

import (
	"time"

	"clanbft"
)

// workload is one traffic mix on one cluster shape. Every workload runs
// behind delay relays with the store in memory and is sized so that no
// operation fails and about one core is busy (README.md has the sizing runs).
type workload struct {
	name string
	why  string

	n        int
	mode     clanbft.Mode
	clanSize int
	delay    time.Duration // one-way, every directed inter-node link
	rate     float64       // open-loop operations per second over both connections
	value    int           // bytes written per write
	readFrac float64       // share of operations that are f_c+1 reads
	roKeys   int           // read-only keys written and seen committed before the clock starts
	crash    bool          // close the last node at the end of warm-up
}

var workloads = []workload{
	{
		name: "wan_steady",
		why:  "n=4, 10 ms links, 2000 writes/s of 128 B: few tx per round, so latency counts message delays and counts are per-round overhead",
		n:    4, mode: clanbft.ModeSailfish, delay: 10 * time.Millisecond,
		rate: 2000, value: 128,
	},
	{
		name: "wan_heavy",
		why:  "same cluster at 10000 writes/s: ~130 tx per block, so admission, mempool, encode, hashing, framing and execution do the counted work",
		n:    4, mode: clanbft.ModeSailfish, delay: 10 * time.Millisecond,
		rate: 10000, value: 128,
	},
	{
		name: "clan_bulk_rw",
		why:  "n=7 single clan of 3, 20 ms links, 3200 ops/s: 75% writes of 2 KiB, 25% f_c+1 reads: payload stays in the clan, bytes dominate",
		n:    7, mode: clanbft.ModeSingleClan, clanSize: 3, delay: 20 * time.Millisecond,
		rate: 3200, value: 2048, readFrac: 0.25, roKeys: 256,
	},
	{
		name: "wan_leader_crash",
		why:  "wan_steady's cluster at 1000 writes/s with node 3 closed after warm-up: ops due while a dead leader's round times out are counted",
		n:    4, mode: clanbft.ModeSailfish, delay: 10 * time.Millisecond,
		rate: 1000, value: 128, crash: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric; BENCHMARK.json carries the same table
// (bench_json_test.go holds the two together).
type metricDef struct {
	name, unit string
	bound      float64 // end-to-end only
}

// endToEnd are the gated metrics, every one time-driven or a count: what
// repeats on a shared two-vCPU guest. All are lower-is-better. Each bound is
// 3 x the worst spread seen over four ten-seed series, rounded up to the next
// 0.05, no lower than the issue's starting value and no higher than 0.25
// (README.md has the series). clan_bulk_rw sets the latency and allocation
// bounds: at n=7 a quarter of its latency is CPU-made and drifts with the box.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"commit_p50_ms", "ms", 0.25},
	{"commit_p95_ms", "ms", 0.25},
	{"wire_bytes_per_tx", "B", 0.05},
	{"wire_msgs_per_ktx", "count", 0.20},
	{"allocs_per_tx", "count", 0.20},
	{"live_heap_mb", "MB", 0.10},
}

// perLayer are reported by the traced run and carry no bound. Layer prefixes
// are the repo's packages; client, process, fault and trace are the
// benchmark's own.
var perLayer = []metricDef{
	{name: "client.gen_lag_p99_ms", unit: "ms"},
	{name: "client.commit_p99_ms", unit: "ms"},
	{name: "client.commit_max_ms", unit: "ms"},
	{name: "client.goodput_tps", unit: "1/s"},
	{name: "client.sat_tps", unit: "1/s"},
	{name: "client.read_p50_ms", unit: "ms"},
	{name: "client.read_p95_ms", unit: "ms"},
	{name: "client.submit_span_ms", unit: "ms"},
	{name: "gateway.read_p50_ms", unit: "ms"},
	{name: "gateway.admit_span_ms", unit: "ms"},
	{name: "gateway.ack_p50_ms", unit: "ms"},
	{name: "gateway.srv_commit_p50_ms", unit: "ms"},
	{name: "gateway.wire_overhead_ms", unit: "ms"},
	{name: "gateway.notify_span_ms", unit: "ms"},
	{name: "gateway.rejected_ratio", unit: "ratio"},
	{name: "gateway.slow_drops", unit: "count"},
	{name: "gateway.stub_rtt_p50_ms", unit: "ms"},
	{name: "mempool.wait_span_ms", unit: "ms"},
	{name: "mempool.txs_per_block", unit: "count"},
	{name: "mempool.block_fill_ratio", unit: "ratio"},
	{name: "core.consensus_span_ms", unit: "ms"},
	{name: "core.rounds_per_s", unit: "1/s"},
	{name: "core.rounds_to_commit", unit: "count"},
	{name: "core.rbc_p50_ms", unit: "ms"},
	{name: "core.order_commit_p50_ms", unit: "ms"},
	{name: "core.order_commit_p95_ms", unit: "ms"},
	{name: "core.anchor_gap_p50_ms", unit: "ms"},
	{name: "core.direct_commit_ratio", unit: "ratio"},
	{name: "core.timeouts", unit: "count"},
	{name: "core.exec_wait_span_ms", unit: "ms"},
	{name: "core.exec_wait_p95_ms", unit: "ms"},
	{name: "core.intake_queue_depth", unit: "count"},
	{name: "crypto.verify_per_tx", unit: "count"},
	{name: "crypto.verify_latency_us", unit: "us"},
	{name: "crypto.verify_ops_per_s", unit: "1/s"},
	{name: "crypto.sign_us", unit: "us"},
	{name: "crypto.hash_mb_s", unit: "MB/s"},
	{name: "transport.flushes_per_ktx", unit: "count"},
	{name: "transport.frames_per_flush", unit: "count"},
	{name: "transport.msgs_dropped", unit: "count"},
	{name: "transport.rx_alloc_bytes_per_tx", unit: "B"},
	{name: "transport.multicast_mb_s", unit: "MB/s"},
	{name: "transport.small_msg_ns", unit: "ns"},
	{name: "types.rx_decode_ns", unit: "ns"},
	{name: "types.vertex_encode_ns", unit: "ns"},
	{name: "dag.edges_per_vertex", unit: "count"},
	{name: "dag.vertices_per_s", unit: "1/s"},
	{name: "store.append_us", unit: "us"},
	{name: "store.group_commit_us", unit: "us"},
	{name: "execution.apply_span_ms", unit: "ms"},
	{name: "execution.apply_us_per_tx", unit: "us"},
	{name: "execution.busy_ratio", unit: "ratio"},
	{name: "execution.serial_tps", unit: "1/s"},
	{name: "process.cpu_ms_per_ktx", unit: "ms"},
	{name: "process.sys_ms_per_ktx", unit: "ms"},
	{name: "process.cpu_cores", unit: "count"},
	{name: "process.alloc_bytes_per_tx", unit: "B"},
	{name: "process.peak_rss_mb", unit: "MB"},
	{name: "process.gc_pause_ms", unit: "ms"},
	{name: "process.steal_ratio", unit: "ratio"},
	{name: "fault.first_commit_after_crash_ms", unit: "ms"},
	{name: "fault.max_commit_gap_ms", unit: "ms"},
	{name: "trace.overhead_ratio", unit: "ratio"},
	{name: "trace.unexplained_ms", unit: "ms"},
}
