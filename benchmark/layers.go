package main

import (
	"sort"
	"time"

	"clanbft/internal/metrics"
)

// maxTxPerBlock is Options.MaxTxPerBlock's default, which every workload runs.
const maxTxPerBlock = 1000

// layerInputs is what the traced run hands to layerMetrics: the two window
// snapshots and the sorted client-side samples.
type layerInputs struct {
	samples
	seconds       float64
	commits       float64
	before, after snapshot

	reads              []float64            // ms, sorted: the window's, or the read probe's
	gwReads            metrics.HistSnapshot // gateway.read_latency over the same reads
	faultAt            float64              // end of warm-up (the crash, where there is one), ms since processStart
	satTPS, queueDepth float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerMetrics fills m with every per-layer metric that comes from the window:
// growth of published counters and histograms between the two snapshots, and
// the client's own samples. Span medians and probes are added by the caller.
// It returns the traced half's commit p50, which the waterfall must add up to.
func layerMetrics(m map[string]float64, l layerInputs, c *cluster, in *inputs, clock, mid int64) (tracedP50 float64) {
	a, b := l.before, l.after
	counter := func(k int, name string) float64 {
		return float64(b.pipe[k].Counter(name) - a.pipe[k].Counter(name))
	}
	hist := func(name string) metrics.HistSnapshot {
		return b.pipe[0].Hist(name).Since(a.pipe[0].Hist(name))
	}

	m["client.gen_lag_p99_ms"] = percentile(l.lag, 0.99)
	m["client.commit_p99_ms"] = percentile(l.commitLat, 0.99)
	m["client.commit_max_ms"] = l.commitLat[len(l.commitLat)-1]
	m["client.goodput_tps"] = l.commits / l.seconds
	m["client.sat_tps"] = l.satTPS
	m["client.read_p50_ms"] = percentile(l.reads, 0.50)
	m["client.read_p95_ms"] = percentile(l.reads, 0.95)
	m["gateway.read_p50_ms"] = ms(l.gwReads.Quantile(0.50))

	// Traced half: every write due after the midpoint recorded its ACK time
	// and the gateway's own submit→commit latency.
	var ack, srv []float64
	for k, cs := range c.cs {
		for i, o := range in.ops[k] {
			if o.due < mid || o.due >= in.winEnd || o.kind != opWrite || cs.status[i] != stOK {
				continue
			}
			if cs.ackAt[i] != 0 {
				ack = append(ack, float64(cs.ackAt[i]-clock-o.due)/1e6)
			}
			srv = append(srv, float64(cs.srvLat[i])/1e6)
		}
	}
	sort.Float64s(ack)
	sort.Float64s(srv)
	tracedP50 = percentile(l.secondHalf, 0.50)
	m["gateway.ack_p50_ms"] = percentile(ack, 0.50)
	m["gateway.srv_commit_p50_ms"] = percentile(srv, 0.50)
	m["gateway.wire_overhead_ms"] = tracedP50 - percentile(srv, 0.50)
	m["trace.overhead_ratio"] = ratio(tracedP50, percentile(l.firstHalf, 0.50))

	var submitted, rejected, slow float64
	for k := range c.gws {
		submitted += counter(k, "gateway.submissions")
		slow += counter(k, "gateway.slow_drops")
		for _, r := range []string{"ratelimit", "overload", "toolarge", "malformed"} {
			rejected += counter(k, "gateway.rejected_"+r)
		}
	}
	m["gateway.rejected_ratio"] = ratio(rejected, submitted)
	m["gateway.slow_drops"] = slow

	var sum struct {
		blocks, flushes, msgs, dropped, rxAlloc, verify float64
	}
	for i := range a.stats {
		sum.blocks += float64(b.core[i].BlocksProposed - a.core[i].BlocksProposed)
		sum.flushes += float64(b.stats[i].Flushes - a.stats[i].Flushes)
		sum.msgs += float64(b.stats[i].MsgsSent - a.stats[i].MsgsSent)
		sum.dropped += float64(b.stats[i].MsgsDropped - a.stats[i].MsgsDropped)
		sum.rxAlloc += float64(b.stats[i].RxAllocBytes - a.stats[i].RxAllocBytes)
		sum.verify += float64(b.stats[i].VerifyQueued - a.stats[i].VerifyQueued)
	}
	g := c.gwNode[0].id
	ca, cb := a.core[g], b.core[g]
	m["mempool.txs_per_block"] = ratio(float64(cb.TxsOrdered-ca.TxsOrdered), sum.blocks)
	m["mempool.block_fill_ratio"] = m["mempool.txs_per_block"] / maxTxPerBlock

	orderLat := hist("order.commit_latency")
	m["core.rounds_per_s"] = float64(b.round-a.round) / l.seconds
	m["core.rbc_p50_ms"] = ms(hist("rbc.latency").Quantile(0.50))
	m["core.order_commit_p50_ms"] = ms(orderLat.Quantile(0.50))
	m["core.order_commit_p95_ms"] = ms(orderLat.Quantile(0.95))
	m["core.rounds_to_commit"] = m["core.order_commit_p50_ms"] / 1000 * m["core.rounds_per_s"]
	m["core.anchor_gap_p50_ms"] = ms(hist("order.anchor_gap").Quantile(0.50))
	direct := float64(cb.DirectCommits - ca.DirectCommits)
	m["core.direct_commit_ratio"] = ratio(direct, direct+float64(cb.IndirectCommits-ca.IndirectCommits))
	m["core.timeouts"] = float64(cb.Timeouts - ca.Timeouts)
	m["core.exec_wait_p95_ms"] = ms(hist("exec.queue_wait").Quantile(0.95))
	m["core.intake_queue_depth"] = l.queueDepth

	m["crypto.verify_per_tx"] = sum.verify / l.commits
	m["crypto.verify_latency_us"] = float64(b.stats[g].VerifyLatency) / 1e3

	m["transport.flushes_per_ktx"] = 1000 * sum.flushes / l.commits
	m["transport.frames_per_flush"] = ratio(sum.msgs, sum.flushes)
	m["transport.msgs_dropped"] = sum.dropped
	m["transport.rx_alloc_bytes_per_tx"] = sum.rxAlloc / l.commits

	vertices := counter(0, "dag.vertices")
	m["dag.edges_per_vertex"] = ratio(counter(0, "dag.edges"), vertices)
	m["dag.vertices_per_s"] = vertices / l.seconds

	applyNs, applyTxs := float64(b.applyNs-a.applyNs), float64(b.applyTxs-a.applyTxs)
	m["execution.apply_us_per_tx"] = ratio(applyNs/1e3, applyTxs)
	m["execution.busy_ratio"] = applyNs / (l.seconds * 1e9)

	user, sys := ms(b.usage.user-a.usage.user), ms(b.usage.sys-a.usage.sys)
	m["process.cpu_ms_per_ktx"] = 1000 * user / l.commits
	m["process.sys_ms_per_ktx"] = 1000 * sys / l.commits
	m["process.cpu_cores"] = (user + sys) / (l.seconds * 1000)
	m["process.alloc_bytes_per_tx"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / l.commits
	m["process.peak_rss_mb"] = float64(readUsage().maxRSSKB) / 1024
	m["process.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	m["process.steal_ratio"] = ratio(float64(b.host.steal-a.host.steal), float64(b.host.total-a.host.total))

	// Service after the fault instant, and the longest silence inside the
	// window. Without a crash the instant is just the end of warm-up.
	var gap float64
	for i := 1; i < len(l.arrivals); i++ {
		gap = max(gap, l.arrivals[i]-l.arrivals[i-1])
	}
	m["fault.max_commit_gap_ms"] = gap
	m["fault.first_commit_after_crash_ms"] = firstCommitAfter(c, l.faultAt)
	return tracedP50
}

// firstCommitAfter is the time from t (ms since processStart) to the first
// COMMIT any client read after it.
func firstCommitAfter(c *cluster, t float64) float64 {
	first := -1.0
	for _, cs := range c.cs {
		for i, d := range cs.done {
			at := float64(d) / 1e6
			if cs.status[i] == stOK && at > t && (first < 0 || at < first) {
				first = at
			}
		}
	}
	if first < 0 {
		return 0
	}
	return first - t
}
