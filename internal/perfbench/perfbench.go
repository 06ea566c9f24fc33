// Package perfbench holds the bodies of the performance benchmarks that gate
// the encode-once transport and group-commit WAL work. The bodies live in a
// normal (non-test) package so the same code runs two ways: as ordinary
// `go test -bench` benchmarks via thin wrappers in the transport and store
// test packages, and from cmd/bench via testing.Benchmark to emit the
// BENCH_BASELINE.json artifact.
package perfbench

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/faults"
	"clanbft/internal/harness"
	"clanbft/internal/store"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// maxInflight caps un-drained multicast bytes. The producer enqueues far
// faster than loopback drains, and every queued reference pins its shared
// frame buffer, so an unpaced loop measures pool-miss churn (and drops) rather
// than the encode path. ns/op therefore includes drain time — the benchmark
// reports sustained multicast throughput, with allocs/op isolating the
// encode-once claim.
const maxInflight = 256 << 20

// MulticastEncodeOnce measures one Multicast of a payloadBytes message to
// `peers` remote peers over real sockets. All peer addresses point at a single
// discarding sink listener, so the endpoint dials `peers` connections and
// every connection carries the same shared frame. The encode-once claim shows
// up as allocs/op independent of the peer count: one marshal (plus one frame
// header) per multicast no matter how many peers receive it.
func MulticastEncodeOnce(b *testing.B, peers, payloadBytes int) {
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	var sunk atomic.Int64
	go func() {
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 1<<20)
				for {
					n, err := c.Read(buf)
					sunk.Add(int64(n))
					if err != nil {
						return
					}
				}
			}()
		}
	}()

	addrs := map[types.NodeID]string{0: "127.0.0.1:0"}
	tos := make([]types.NodeID, 0, peers)
	for i := 1; i <= peers; i++ {
		addrs[types.NodeID(i)] = sink.Addr().String()
		tos = append(tos, types.NodeID(i))
	}
	ep, err := transport.NewTCPEndpoint(0, addrs)
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()

	payload := make([]byte, payloadBytes)
	msg := &types.BlockRspMsg{Block: &types.Block{Txs: [][]byte{payload}}}

	// Prime every connection (dial + handshake) and the frame buffer pool
	// before the timer starts, so per-connection setup does not get billed to
	// the measured ops. The wait sees each peer's hello plus the full first
	// frame drained into the sink.
	ep.Multicast(tos, msg)
	for sunk.Load() < int64(peers)*int64(payloadBytes) {
		time.Sleep(100 * time.Microsecond)
	}

	b.SetBytes(int64(peers) * int64(payloadBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep.Multicast(tos, msg)
		for int64(ep.Stats().BytesSent)-sunk.Load() > maxInflight {
			time.Sleep(100 * time.Microsecond)
		}
	}
	b.StopTimer()
	st := ep.Stats()
	b.ReportMetric(float64(st.MsgsDropped)/float64(b.N), "drops/op")
}

// rxBatch is how many framed echoes one RxDecodeZeroCopy op decodes: two of
// the Decoder's message blocks, so the decode shows its steady state (an
// arena allocation amortized over a block's worth of frames).
const rxBatch = 64

// RxDecodeZeroCopy measures decoding a buffer of one-entry ECHO frames — the
// highest-volume message class — with Decoder.Decode, as the TCP read loop
// does: each op refills one reused buffer with the frames and decodes them.
// One op decodes rxBatch messages, so allocs/op ≈ allocations per 64 echoes:
// the echo arena's blocks, amortized across the batch.
// The bool is unused; benchmark/ passes it and keeps it until that module drops it.
func RxDecodeZeroCopy(b *testing.B, _ bool) {
	vote := &types.EchoMsg{Entries: []types.EchoEntry{{Pos: types.Position{Round: 912, Source: 37}}}, Voter: 41}
	for i := range vote.Entries[0].Digest {
		vote.Entries[0].Digest[i] = byte(i * 7)
	}
	for i := range vote.Sig {
		vote.Sig[i] = byte(i * 3)
	}
	one := types.Encode(vote, nil)
	stream := make([]byte, 0, rxBatch*(4+len(one)))
	for i := 0; i < rxBatch; i++ {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(one)))
		stream = append(stream, one...)
	}
	buf := make([]byte, len(stream))

	b.ReportAllocs()
	b.ResetTimer()
	var dec types.Decoder
	for i := 0; i < b.N; i++ {
		copy(buf, stream)
		off := 0
		for j := 0; j < rxBatch; j++ {
			n := int(binary.BigEndian.Uint32(buf[off:]))
			if _, err := dec.Decode(buf[off+4 : off+4+n]); err != nil {
				b.Fatal(err)
			}
			off += 4 + n
		}
	}
}

// SmallMsgCoalesce measures sending a stream of vote-sized messages to one
// peer over a real socket. The writer batches queued frames into one gather
// write, driving flushes/msg — writev syscalls per message — far below 1;
// coalesced/msg counts the frames that rode along free.
// The bool is unused; benchmark/ passes it and keeps it until that module drops it.
func SmallMsgCoalesce(b *testing.B, _ bool) {
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	var sunk atomic.Int64
	go func() {
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 1<<20)
				for {
					n, err := c.Read(buf)
					sunk.Add(int64(n))
					if err != nil {
						return
					}
				}
			}()
		}
	}()

	addrs := map[types.NodeID]string{0: "127.0.0.1:0", 1: sink.Addr().String()}
	ep, err := transport.NewTCPEndpoint(0, addrs)
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()

	msg := &types.EchoMsg{Entries: []types.EchoEntry{{Pos: types.Position{Round: 3, Source: 1}}}, Voter: 0}
	// wireOut computes the bytes the sink should eventually see: frame
	// bodies + 4-byte prefixes + the 2-byte dial handshake.
	wireOut := func(st transport.Stats) int64 {
		return int64(st.BytesSent) + 4*int64(st.MsgsSent) + 2
	}
	// drain waits for the sink to absorb everything enqueued so far. The
	// deadline only matters if frames were dropped (none at this pacing).
	drain := func() {
		deadline := time.Now().Add(5 * time.Second)
		for sunk.Load() < wireOut(ep.Stats()) && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	// Prime the connection so the dial/handshake is not billed to the ops.
	ep.Send(1, msg)
	drain()

	b.SetBytes(int64(msg.WireSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep.Send(1, msg)
		// Pace below the out-queue's capacity so the benchmark measures the
		// coalescing writer, not drop behavior on an overflowing queue.
		for wireOut(ep.Stats())-sunk.Load() > 256<<10 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	drain()
	b.StopTimer()
	st := ep.Stats()
	if st.MsgsSent > 0 {
		b.ReportMetric(float64(st.Flushes)/float64(st.MsgsSent), "flushes/msg")
		b.ReportMetric(float64(st.CoalescedFrames)/float64(st.MsgsSent), "coalesced/msg")
	}
	b.ReportMetric(float64(st.MsgsDropped)/float64(b.N), "drops/op")
}

// DiskGroupCommit measures a Put against a SyncEvery WAL under `writers`
// concurrent goroutines. Group commit shows up as fsyncs/op < 1: many
// acknowledged records ride each fsync. The store is opened fresh per
// invocation, so the reported counters correspond exactly to the measured
// b.N operations.
func DiskGroupCommit(b *testing.B, writers int) {
	dir, err := os.MkdirTemp("", "clanbft-groupcommit-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	s, err := store.Open(dir, store.Options{SyncEvery: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((writers + procs - 1) / procs)
	var seq atomic.Uint64
	val := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var key [8]byte
		for pb.Next() {
			binary.BigEndian.PutUint64(key[:], seq.Add(1))
			if err := s.Put(key[:], val); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.Syncs)/float64(b.N), "fsyncs/op")
	if st.Groups > 0 {
		b.ReportMetric(float64(st.Records)/float64(st.Groups), "recs/group")
	}
}

// PipelineE2E drives the full staged commit pipeline — intake → rbc →
// order → async exec — through the harness simulator and reports
// commits/sec: committed vertices per simulated second at node 0. Virtual
// time and a fixed seed make the number a deterministic property of the
// protocol code path (unlike ns/op, which measures the runner), so it gates
// CI end to end alongside the structural allocs/op and fsyncs/op metrics.
// commits/sec is higher-is-better; compareBaseline in cmd/bench knows.
func PipelineE2E(b *testing.B) {
	const warm, meas = 2 * time.Second, 6 * time.Second
	commits := 0
	for i := 0; i < b.N; i++ {
		res := harness.Run(harness.Config{
			Mode: core.ModeSingleClan, N: 12, TxPerProposal: 50,
			Warmup: warm, Measure: meas, Seed: 42,
		})
		commits = len(res.Order)
	}
	if commits == 0 {
		b.Fatal("pipeline committed nothing")
	}
	b.ReportMetric(float64(commits)/(warm+meas).Seconds(), "commits/sec")
}

// CommitLatencyUnderFaults drives the latency-compression scenario — a
// nine-party cluster, every member an anchor, with one member crashed before
// the measurement window — under the reputation-driven schedule, and reports
// the committed vertices' creation-to-ordering p50 as commit_latency_p50
// (milliseconds, lower is better; compareBaseline in cmd/bench gates it).
// Without the reputation schedule the static rotation hands the dead member
// the primary slot every ninth round and a RoundTimeout with it; the gate
// pins the compressed schedule's p50 so a regression in offense detection,
// the apply fence, slot liveness or the slot-fate rule shows up as a latency
// cliff rather than a silent stall. Deterministic: virtual time, fixed seed.
// The static-vs-compressed comparison itself lives in cmd/bench -exp latency.
func CommitLatencyUnderFaults(b *testing.B) {
	var res harness.Result
	for i := 0; i < b.N; i++ {
		res = harness.Run(harness.Config{
			Mode: core.ModeBaseline, N: 9, TxPerProposal: 30,
			Warmup: 2 * time.Second, Measure: 4 * time.Second, Seed: 42,
			RoundTimeout:     1200 * time.Millisecond,
			ReconfigDelay:    8,
			LeaderReputation: true,
			ReputationWindow: 256,
			Faults: &faults.Schedule{Seed: 42, Events: []faults.Event{
				{At: 500 * time.Millisecond, Kind: faults.KindCrash, Node: 3},
			}},
		})
	}
	if len(res.Order) == 0 || res.CommitP50 <= 0 {
		b.Fatal("faulted pipeline committed nothing")
	}
	if res.ReputationOffenses == 0 {
		b.Fatal("no committed offense evidence; the reputation schedule never engaged")
	}
	b.ReportMetric(float64(res.CommitP50)/float64(time.Millisecond), "commit_latency_p50")
	b.ReportMetric(float64(len(res.Order))/6, "commits/sec")
}

// OrderWorkPerVertex is the all-anchors cost gate at the paper's scale: a
// hundred-party simulated cluster run once with every member an anchor and
// once with the single leader pinned, comparing the ordering stage's
// structural work — edges tallied, slot fates evaluated, DAG edges walked
// (the order.work counter) — per delivered vertex. Ordering n anchors a round
// must not cost a multiple of ordering one: the per-round vote tally is
// updated once per seen proposal whatever the anchor count, a slot's verdict
// is one comparison, and each anchor's history walk covers one round where
// the single leader's covers two. The row reports the all-anchors figure as
// order_work/vertex (lower is better; compareBaseline gates it) and fails
// outright if it exceeds 1.5x the single-leader figure. Counts, not time:
// deterministic under the simulator's fixed seed.
func OrderWorkPerVertex(b *testing.B, n int) {
	measure := func(leaders int) float64 {
		res := harness.Run(harness.Config{
			Mode: core.ModeBaseline, N: n, TxPerProposal: 1, LeadersPerRound: leaders,
			// One region: the modeled CPU, not the WAN, paces the rounds
			// (about ten in this window), which is all a count needs.
			Regions: make([]int, n),
			Warmup:  300 * time.Millisecond, Measure: 700 * time.Millisecond, Seed: 42,
		})
		verts := res.Pipeline.Counters["rbc.delivered"]
		if verts == 0 || len(res.Order) == 0 {
			b.Fatalf("L=%d: nothing delivered or ordered", leaders)
		}
		return float64(res.Pipeline.Counters["order.work"]) / float64(verts)
	}
	var all, single float64
	for i := 0; i < b.N; i++ {
		all, single = measure(0), measure(1)
	}
	if all > 1.5*single {
		b.Fatalf("ordering work per delivered vertex: %.1f with every member an anchor, %.1f with one leader — more than 1.5x", all, single)
	}
	b.ReportMetric(all, "order_work/vertex")
	b.ReportMetric(all/single, "vs_single_leader")
}

// DagScale drives a multi-clan cluster of n nodes with the single leader
// pinned and reports commits/sec plus bytes/commit and parents/vertex.
// bytes/commit — total cluster wire bytes over node 0's committed vertices —
// gates the DAG's metadata cost lower-is-better; commits/sec is floor-checked.
// Deterministic: virtual time, fixed seed.
func DagScale(b *testing.B, n int) {
	const warm, meas = 1 * time.Second, 3 * time.Second
	var res harness.Result
	for i := 0; i < b.N; i++ {
		res = harness.Run(harness.Config{
			Mode: core.ModeMultiClan, N: n, TxPerProposal: 8,
			Warmup: warm, Measure: meas, Seed: 42,
			LeadersPerRound: 1,
		})
	}
	commits := len(res.Order)
	if commits == 0 {
		b.Fatal("dag-scale pipeline committed nothing")
	}
	b.ReportMetric(float64(commits)/(warm+meas).Seconds(), "commits/sec")
	b.ReportMetric(float64(res.TotalBytes)/float64(commits), "bytes/commit")
	if verts := res.Pipeline.Counters["dag.vertices"]; verts > 0 {
		b.ReportMetric(float64(res.Pipeline.Counters["dag.edges"])/float64(verts), "parents/vertex")
	}
}

// Row is one benchmark result as measured. Split sorts its fields into the
// artifact's two sections.
type Row struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"alloc_bytes_per_op"`
	MBPerSec    float64            `json:"mb_per_sec,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Run executes fn under testing.Benchmark and converts the result.
func Run(name string, fn func(b *testing.B)) Row {
	r := testing.Benchmark(fn)
	row := Row{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Extra:       r.Extra,
	}
	if r.Bytes > 0 && r.T > 0 {
		row.MBPerSec = float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e6
	}
	return row
}

// Artifact is the micro-benchmark file (BENCH_BASELINE.json). Counters are
// properties of the code path — allocations, bytes, syscalls per message,
// virtual-time rates — and are what CI gates on. WallClock is what this
// machine's clock read while taking them: kept for the record, never gated,
// so a trajectory of artifacts does not carry one runner's noise.
type Artifact struct {
	Counters  []CounterRow `json:"counters"`
	WallClock []TimingRow  `json:"wall_clock"`
}

// CounterRow is a benchmark's machine-independent half.
type CounterRow struct {
	Name        string             `json:"name"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"alloc_bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// TimingRow is a benchmark's wall-clock half.
type TimingRow struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	MBPerSec   float64            `json:"mb_per_sec,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// wallClockExtras are the reported metrics that read the wall clock; every
// other extra is a count (or a virtual-time rate) and goes with the counters.
var wallClockExtras = map[string]bool{"p50_ms": true, "p99_ms": true}

// Split sorts measured rows into the artifact's two sections.
func Split(rows []Row) Artifact {
	var a Artifact
	for _, r := range rows {
		c := CounterRow{Name: r.Name, AllocsPerOp: r.AllocsPerOp, BytesPerOp: r.BytesPerOp}
		t := TimingRow{Name: r.Name, Iterations: r.Iterations, NsPerOp: r.NsPerOp, MBPerSec: r.MBPerSec}
		for k, v := range r.Extra {
			dst := &c.Extra
			if wallClockExtras[k] {
				dst = &t.Extra
			}
			if *dst == nil {
				*dst = map[string]float64{}
			}
			(*dst)[k] = v
		}
		a.Counters = append(a.Counters, c)
		a.WallClock = append(a.WallClock, t)
	}
	return a
}

// Suite runs the gating micro-benchmarks: the multicast at two peer counts
// (allocs/op must match — the encode-once invariant), group commit at two
// writer counts (fsyncs/op must stay below one), the end-to-end pipeline
// (commits/sec must not fall), the faulted latency-compression cell
// (commit_latency_p50 must not rise), the DAG's metadata cost at n=50
// (bytes/commit must not rise, commits/sec must not fall), and the serving
// front door: admission-control throughput (allocs/op must stay zero,
// admit_share must hold its deterministic value) and client end-to-end
// latency through the gateway protocol (wall clock,
// recorded only), and the transaction path's allocation counts layer by layer
// (TxPath/*: allocs/op must stay at zero, or at one per transaction through
// the gateway), and what one round's VALs cost in ECHO frames, signatures and
// verify jobs by the number of mailbox drains they arrive in (EchoDrain:
// each must stay equal to the number of drains at round 0, and at one for a
// frontier round's VALs in n-1 drains).
func Suite(verbose io.Writer) []Row {
	rows := []Row{
		Run("MulticastEncodeOnce/peers=4/payload=1MiB", func(b *testing.B) { MulticastEncodeOnce(b, 4, 1<<20) }),
		Run("MulticastEncodeOnce/peers=40/payload=1MiB", func(b *testing.B) { MulticastEncodeOnce(b, 40, 1<<20) }),
		Run("RxDecodeZeroCopy/mode=zerocopy", func(b *testing.B) { RxDecodeZeroCopy(b, true) }),
		Run("SmallMsgCoalesce/coalesce=on", func(b *testing.B) { SmallMsgCoalesce(b, true) }),
		Run("DiskGroupCommit/writers=8", func(b *testing.B) { DiskGroupCommit(b, 8) }),
		Run("DiskGroupCommit/writers=16", func(b *testing.B) { DiskGroupCommit(b, 16) }),
		Run("PipelineE2E/n=12/single-clan", PipelineE2E),
		Run("CommitLatencyUnderFaults/n=9/reputation", CommitLatencyUnderFaults),
		Run("OrderWorkPerVertex/n=100/all-anchors", func(b *testing.B) { OrderWorkPerVertex(b, 100) }),
		Run("DagScale/n=50", func(b *testing.B) { DagScale(b, 50) }),
		Run("GatewayAdmitRate/clients=1024", func(b *testing.B) { GatewayAdmitRate(b, 1024) }),
		Run("ClientE2ELatency/stub-consensus", ClientE2ELatency),
		Run("TxPath/apply/overwrites=1000", TxPathApply),
		Run("TxPath/digest/txs=1000", TxPathDigest),
		Run("TxPath/gateway/batch=256", TxPathGateway),
		Run("TxPath/bufpool/roundtrip", TxPathBufpool),
		Run("EchoDrain/n=7", func(b *testing.B) { EchoDrain(b, 7) }),
	}
	if verbose != nil {
		for _, r := range rows {
			fmt.Fprintf(verbose, "%-45s %10d ops  %12.0f ns/op  %6d allocs/op", r.Name, r.Iterations, r.NsPerOp, r.AllocsPerOp)
			for k, v := range r.Extra {
				fmt.Fprintf(verbose, "  %.3f %s", v, k)
			}
			fmt.Fprintln(verbose)
		}
	}
	return rows
}
