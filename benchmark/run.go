package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/gateway"
	"clanbft/internal/metrics"
	"clanbft/internal/transport"
)

// defaultBoots is how many times a run sets the cluster up; setup_s is the
// median, and the last boot is the cluster that gets measured.
const defaultBoots = 7

type runConfig struct {
	w       workload
	seed    int64
	seconds int
	traced  bool
	boots   int
	outDir  string
	report  io.Writer // human-readable progress and tables
}

// result is what one run reports: the contract's four keys, plus validity
// figures printed beside them.
type result struct {
	attempted int
	failed    int
	metrics   map[string]float64
	gateErrs  []error
	genLagP99 float64 // ms; a run above 5 ms is over-sized for this box
}

func (r *result) correct() bool { return len(r.gateErrs) == 0 }

func (r *result) fail(err error) {
	if err != nil {
		r.gateErrs = append(r.gateErrs, err)
	}
}

// samples are the client-side measurements of every operation due inside the
// window, latency from due, in ms and sorted. A failed operation ranks as the
// slowest sample: it is charged the whole wait until drain ended.
type samples struct {
	attempted, failed                int
	commitLat, firstHalf, secondHalf []float64 // writes; the halves split at the window's midpoint
	readLat, lag                     []float64
	arrivals                         []float64 // COMMIT read times, ms since processStart
}

func collect(c *cluster, in *inputs, clock, mid, drainEnd int64) samples {
	var s samples
	for k, cs := range c.cs {
		for i, o := range in.ops[k] {
			if o.due < in.winStart || o.due >= in.winEnd {
				continue
			}
			s.attempted++
			end := cs.done[i]
			if cs.status[i] != stOK {
				s.failed++
				end = max(drainEnd, end)
			}
			ms := float64(end-clock-o.due) / 1e6
			s.lag = append(s.lag, float64(cs.sent[i]-clock-o.due)/1e6)
			if o.kind == opRead {
				s.readLat = append(s.readLat, ms)
				continue
			}
			s.commitLat = append(s.commitLat, ms)
			if o.due < mid {
				s.firstHalf = append(s.firstHalf, ms)
			} else {
				s.secondHalf = append(s.secondHalf, ms)
			}
			if cs.status[i] == stOK {
				s.arrivals = append(s.arrivals, float64(cs.done[i])/1e6)
			}
		}
	}
	for _, v := range [][]float64{s.commitLat, s.firstHalf, s.secondHalf, s.readLat, s.lag, s.arrivals} {
		sort.Float64s(v)
	}
	return s
}

// snapshot is every published counter the benchmark window-diffs, read at one
// instant.
type snapshot struct {
	commits int64
	stats   []transport.Stats // zero for a node that is down
	mem     runtime.MemStats

	// Traced run only.
	core     []core.Metrics
	pipe     [conns]metrics.Snapshot // the gateway nodes' registries
	round    uint64                  // first gateway node
	usage    procUsage
	host     hostCPU
	applyNs  int64 // first gateway node
	applyTxs int64
}

func (c *cluster) snapshot(traced bool) snapshot {
	s := snapshot{stats: make([]transport.Stats, len(c.nodes))}
	for _, cs := range c.cs {
		s.commits += cs.commits.Load()
	}
	for i, n := range c.nodes {
		if !n.down {
			s.stats[i] = n.nd.Stats()
		}
	}
	if traced {
		s.core = make([]core.Metrics, len(c.nodes))
		for i, n := range c.nodes {
			if !n.down {
				s.core[i] = n.nd.Metrics()
			}
		}
		for k, n := range c.gwNode {
			s.pipe[k] = n.nd.PipelineMetrics()
		}
		g := c.gwNode[0]
		s.round = uint64(g.nd.Round())
		s.applyNs, s.applyTxs = g.applyNs.Load(), g.applyTxs.Load()
		s.usage = readUsage()
		s.host = readHostCPU()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func sleepUntil(t int64) {
	if d := t - sinceStart(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// run executes one workload once: several boots, prefill, warm-up, the
// measured window, drain, then (traced) the closed-loop burst and the layer
// probes, then the correctness gate.
func run(cfg runConfig) (*result, error) {
	w, rep := cfg.w, cfg.report
	res := &result{metrics: map[string]float64{}}
	res.fail(gateSelfTest())
	in := genInputs(w, cfg.seed, cfg.seconds)

	var (
		c      *cluster
		tr     *tracer
		setups []float64
	)
	for b := 0; b < cfg.boots; b++ {
		var cs [conns]*connState
		for k := range cs {
			cs[k] = newConnState(k, in)
		}
		last := b == cfg.boots-1
		if last {
			if cfg.traced {
				tr = newTracer(in)
			}
			for k := range cs {
				cs[k].arm(tr)
			}
		}
		bc, took, err := boot(w, cs, tr)
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", b, err)
		}
		setups = append(setups, took.Seconds())
		if last {
			c = bc
		} else {
			bc.close()
		}
	}
	defer c.close()
	fmt.Fprintf(rep, "%s seed %d: %d boots, set-up median %.3f s (min %.3f, max %.3f)\n",
		w.name, cfg.seed, len(setups), median(setups), slices.Min(setups), slices.Max(setups))

	if err := prefill(c, in); err != nil {
		return nil, err
	}

	// Open loop: one pacer per connection, the clock starting a moment from
	// now so that both see the same origin.
	clock := sinceStart() + int64(10*time.Millisecond)
	var pacers sync.WaitGroup
	for _, cs := range c.cs {
		pacers.Add(1)
		go func(cs *connState) {
			defer pacers.Done()
			cs.pace(clock)
		}(cs)
	}

	sleepUntil(clock + int64(warmup))
	faultAt := sinceStart()
	if w.crash {
		c.crash(c.nodes[len(c.nodes)-1])
	}
	sleepUntil(clock + in.winStart)
	before := c.snapshot(cfg.traced)
	var depth depthSampler
	mid := (in.winStart + in.winEnd) / 2
	if cfg.traced {
		depth.start(c.gwNode[0])
		sleepUntil(clock + mid)
		tr.on.Store(true)
	}
	sleepUntil(clock + in.winEnd)
	after := c.snapshot(cfg.traced)
	depth.stop()

	pacers.Wait()
	drained := drain(c, func(cs *connState) bool { return int(cs.answered.Load()) == len(cs.status) })
	for _, cs := range c.cs {
		if cs.sendErr != nil {
			return nil, cs.sendErr
		}
	}
	drainEnd := sinceStart()

	// What the nodes keep once the run is over and before anything is closed.
	// Two collections: after one, sync.Pool victim caches still hold whatever
	// buffers were pooled at that instant, which made this figure swing by
	// 2 MB (spread 0.09 on wan_leader_crash); the second drops them.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	var reads []float64
	var satTPS float64
	var gwReads metrics.HistSnapshot
	if cfg.traced {
		var err error
		if w.readFrac == 0 {
			if reads, err = probeReads(c, in); err != nil {
				return nil, err
			}
		}
		// The gateway's own view of the same reads: the window's, or the
		// probe's where the workload has none.
		const readHist = "gateway.read_latency"
		gwReads = c.gwNode[0].nd.PipelineMetrics().Hist(readHist).Since(before.pipe[0].Hist(readHist))
		if satTPS, err = saturate(c); err != nil {
			return nil, err
		}
	}
	c.close()

	for _, err := range gate(c, in, tr) {
		res.fail(err)
	}
	smp := collect(c, in, clock, mid, drainEnd)
	res.attempted, res.failed = smp.attempted, smp.failed
	commits := float64(after.commits - before.commits)
	lag := smp.lag
	if len(smp.commitLat) == 0 || commits == 0 {
		return nil, errors.New("no write was due, or none committed, inside the window")
	}
	res.genLagP99 = percentile(lag, 0.99)
	fmt.Fprintf(rep, "generator lag (write start - due), ms: p50 %.3f p90 %.3f p99 %.3f max %.3f\n",
		percentile(lag, 0.50), percentile(lag, 0.90), res.genLagP99, lag[len(lag)-1])
	if !drained {
		fmt.Fprintf(rep, "drain hit its %v limit with operations unanswered\n", drainLimit)
	}

	var bytesSent, msgsSent float64
	for i := range after.stats {
		bytesSent += float64(after.stats[i].BytesSent - before.stats[i].BytesSent)
		msgsSent += float64(after.stats[i].MsgsSent - before.stats[i].MsgsSent)
	}
	m := res.metrics
	if !cfg.traced {
		m["setup_s"] = median(setups)
		m["commit_p50_ms"] = percentile(smp.commitLat, 0.50)
		m["commit_p95_ms"] = percentile(smp.commitLat, 0.95)
		m["wire_bytes_per_tx"] = bytesSent / commits
		m["wire_msgs_per_ktx"] = 1000 * msgsSent / commits
		m["allocs_per_tx"] = float64(after.mem.Mallocs-before.mem.Mallocs) / commits
		m["live_heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)
		return res, nil
	}

	if len(reads) == 0 {
		reads = smp.readLat
	}
	l := layerInputs{
		samples: smp, seconds: float64(cfg.seconds), commits: commits, before: before, after: after,
		reads: reads, faultAt: float64(faultAt) / 1e6,
		satTPS: satTPS, queueDepth: depth.mean(), gwReads: gwReads,
	}
	spans := buildSpans(c, tr, clock)
	bars := waterfall(spans)
	tracedP50 := layerMetrics(m, l, c, in, clock, mid)
	sum := printWaterfall(rep, bars, tracedP50, len(spans)/(len(spanNames)+1))
	for _, name := range spanNames {
		m[name+"_span_ms"] = bars[name]
	}
	m["trace.unexplained_ms"] = tracedP50 - sum
	if len(spans) == 0 {
		res.fail(errors.New("traced run recorded no complete span tree"))
	} else if bars["mempool.wait"] < 0 {
		res.fail(fmt.Errorf("benchmark bug: median mempool.wait is %.3f ms, a proposal before its transaction's ACK", bars["mempool.wait"]))
	}

	probeStart := time.Now()
	if err := layerProbes(m, cfg.outDir); err != nil {
		return nil, err
	}
	fmt.Fprintf(rep, "layer probes took %.2f s\n", time.Since(probeStart).Seconds())

	counters := map[string]float64{"commits": commits, "wire_bytes": bytesSent, "wire_msgs": msgsSent}
	for k, v := range m {
		counters[k] = v
	}
	path, err := writeTrace(cfg.outDir, w, cfg.seed, spans, bars, counters)
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	fmt.Fprintf(rep, "%d spans written to %s\n", len(spans), path)
	return res, nil
}

// prefill writes the read-only range through both gateways and waits until
// every write has its COMMIT and every clan member has had time to apply it,
// so that no later read races a write the workload itself set up.
func prefill(c *cluster, in *inputs) error {
	if in.w.roKeys == 0 {
		return nil
	}
	var buf []byte
	for k := 0; k < in.w.roKeys; k++ {
		cs := c.cs[k%conns]
		buf = in.appendWrite(buf[:0], 'r', uint32(k), tagRO, uint32(k))
		if err := cs.cl.Submit(uint64(cs.id*clientsPerConn), auxBase+1+uint64(k), buf); err != nil {
			return fmt.Errorf("prefill key %d: %w", k, err)
		}
	}
	for _, cs := range c.cs {
		n := (in.w.roKeys - cs.id + conns - 1) / conns
		if _, err := cs.awaitAux(n, 30*time.Second, gateway.MsgCommit); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	time.Sleep(10 * in.w.delay)
	return nil
}

// probeReads issues a few f_c+1 reads of the boot probe's key on a workload
// that has no reads of its own, so the read path's latency is seen there too.
// It returns sorted latencies in ms.
func probeReads(c *cluster, in *inputs) ([]float64, error) {
	const n = 64
	cs := c.cs[0]
	key := appendKey(nil, 'r', in.probeKey())
	want := in.ro[in.probeKey()]
	var out []float64
	for i := 0; i < n; i++ {
		start := sinceStart()
		if err := cs.cl.Read(0, auxBase+1<<20+uint64(i), key); err != nil {
			return nil, fmt.Errorf("probe read: %w", err)
		}
		got, err := cs.awaitAux(1, 5*time.Second, gateway.MsgValue)
		if err != nil {
			return nil, fmt.Errorf("probe read: %w", err)
		}
		if int(got[0].ev.Quorum) < cs.fc+1 || !bytes.Equal(got[0].ev.Value, want) {
			return nil, errors.New("probe read: VALUE is not what the probe wrote")
		}
		out = append(out, float64(got[0].at-start)/1e6)
		time.Sleep(time.Millisecond)
	}
	sort.Float64s(out)
	return out, nil
}

// saturate runs the closed-loop burst on both connections and returns commits
// per second over its length.
func saturate(c *cluster) (float64, error) {
	var wg sync.WaitGroup
	for _, cs := range c.cs {
		wg.Add(1)
		go func(cs *connState) {
			defer wg.Done()
			cs.burst()
		}(cs)
	}
	wg.Wait()
	var done int64
	for _, cs := range c.cs {
		if cs.sendErr != nil {
			return 0, cs.sendErr
		}
		done += cs.burstCommit.Load()
	}
	drain(c, func(cs *connState) bool { return len(cs.burstSlots) == 0 })
	return float64(done) / burstLength.Seconds(), nil
}

// drain waits until idle holds for every connection, at most drainLimit.
func drain(c *cluster, idle func(*connState) bool) bool {
	deadline := time.Now().Add(drainLimit)
	for {
		all := true
		for _, cs := range c.cs {
			all = all && idle(cs)
		}
		if all || time.Now().After(deadline) {
			return all
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// depthSampler reads one node's handler queue depth at 10 Hz.
type depthSampler struct {
	quit chan struct{}
	done chan struct{}
	sum  float64
	n    int
}

func (d *depthSampler) start(n *node) {
	d.quit, d.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(d.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-d.quit:
				return
			case <-t.C:
				d.sum += float64(n.nd.Stats().HandlerQueue)
				d.n++
			}
		}
	}()
}

func (d *depthSampler) stop() {
	if d.quit != nil {
		close(d.quit)
		<-d.done
	}
}

func (d *depthSampler) mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}
