package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"clanbft"
	"clanbft/internal/execution"
)

// tracer holds what the gateway nodes' commit hooks record in a traced run.
// From the start of the run it counts every write's appearances in its
// gateway node's order (the exactly-once gate); once switched on, at the
// window's midpoint, it also stamps one write in traceEvery as it passes
// through ordering and execution. Spans are assembled after the run from
// these stamps and the client's.
type tracer struct {
	on   atomic.Bool
	conn [conns]connTrace
}

// connTrace is written by one gateway node's execution goroutine.
type connTrace struct {
	ops  int     // open-loop operations of the connection; burst writes follow
	seen []uint8 // appearances of write i in the gateway node's order

	// Indexed by i/traceEvery, for writes with i%traceEvery == 0.
	proposed, ordered []time.Duration // on the gateway node's clock
	entered, applied  []int64         // ns since processStart
}

func newTracer(in *inputs) *tracer {
	t := &tracer{}
	for k := range t.conn {
		n := len(in.ops[k])
		m := n/traceEvery + 1
		t.conn[k] = connTrace{
			ops:      n,
			seen:     make([]uint8, n+burstCap),
			proposed: make([]time.Duration, m),
			ordered:  make([]time.Duration, m),
			entered:  make([]int64, m),
			applied:  make([]int64, m),
		}
	}
	return t
}

// block runs inside a gateway node's commit hook, after Apply returned, for
// every block that node orders.
func (t *tracer) block(n *node, cv clanbft.Commit, entered, applied int64) {
	ct := &t.conn[n.conn]
	// A gateway's transactions ride its own node's vertices, so both
	// ProposedAt and OrderedAt of an own vertex are on this node's clock.
	stamp := t.on.Load() && int(cv.Vertex.Source) == n.id
	for _, raw := range cv.Block.Txs {
		tx, ok := execution.DecodeTx(raw)
		if !ok || len(tx.Value) < valueHeader || tx.Value[0] != byte(n.conn) {
			continue
		}
		i := int(binary.BigEndian.Uint32(tx.Value[1:]))
		if i >= len(ct.seen) {
			continue
		}
		if ct.seen[i] < 255 {
			ct.seen[i]++
		}
		if stamp && i < ct.ops && i%traceEvery == 0 {
			k := i / traceEvery
			ct.proposed[k], ct.ordered[k] = cv.ProposedAt, cv.OrderedAt
			ct.entered[k], ct.applied[k] = entered, applied
		}
	}
}

// span is one interval of one traced write. Children tile the root: each
// starts where the previous ended.
type span struct {
	TraceID string `json:"trace_id"` // conn/client/seq
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"` // since the open-loop clock started
	EndNs   int64  `json:"end_ns"`
}

// spanNames are the root's children in order; the waterfall has one bar each.
var spanNames = []string{
	"client.submit",   // due → Submit returned
	"gateway.admit",   // → ACK read
	"mempool.wait",    // → own vertex's ProposedAt
	"core.consensus",  // → OrderedAt
	"core.exec_wait",  // → the benchmark's OnCommit entered
	"execution.apply", // → Apply returned
	"gateway.notify",  // → COMMIT read
}

// buildSpans assembles the span tree of every sampled write that has all its
// stamps: due while tracing was on and committed before the run ended.
func buildSpans(c *cluster, tr *tracer, clock int64) []span {
	var out []span
	for k, cs := range c.cs {
		ct := &tr.conn[k]
		epoch := c.gwNode[k].epoch
		ops := cs.in.ops[k]
		for i := 0; i < len(ops); i += traceEvery {
			j := i / traceEvery
			if ops[i].kind != opWrite || cs.status[i] != stOK ||
				cs.subRet[i] == 0 || cs.ackAt[i] == 0 || ct.entered[j] == 0 {
				continue
			}
			id := fmt.Sprintf("%d/%d/%d", k, k*clientsPerConn+int(ops[i].client), i)
			cuts := []int64{
				clock + ops[i].due,
				cs.subRet[i],
				cs.ackAt[i],
				epoch + int64(ct.proposed[j]),
				epoch + int64(ct.ordered[j]),
				ct.entered[j],
				ct.applied[j],
				cs.done[i],
			}
			out = append(out, span{TraceID: id, Name: "tx", StartNs: cuts[0] - clock, EndNs: cuts[7] - clock})
			for s, name := range spanNames {
				out = append(out, span{TraceID: id, Name: name, Parent: "tx", StartNs: cuts[s] - clock, EndNs: cuts[s+1] - clock})
			}
		}
	}
	return out
}

// waterfall is the median self time of each span name, in ms. A child's self
// time is its duration (it has no children); the root's is what its children
// leave uncovered, which is nothing, since they tile it.
func waterfall(spans []span) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		if s.Parent != "" {
			by[s.Name] = append(by[s.Name], float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	out := map[string]float64{}
	for name, v := range by {
		out[name] = median(v)
	}
	return out
}

func printWaterfall(w io.Writer, bars map[string]float64, tracedP50 float64, traces int) (sum float64) {
	fmt.Fprintf(w, "waterfall: median self time per layer over %d traced writes, ms\n", traces)
	for _, name := range spanNames {
		sum += bars[name]
		fmt.Fprintf(w, "  %-16s %9.3f\n", name, bars[name])
	}
	fmt.Fprintf(w, "  %-16s %9.3f  traced commit p50 %.3f, unexplained %.3f (%.1f%%)\n",
		"sum", sum, tracedP50, tracedP50-sum, 100*(tracedP50-sum)/tracedP50)
	return sum
}

// writeTrace stores the run's spans and window counters under out/.
func writeTrace(dir string, w workload, seed int64, spans []span, bars, counters map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+w.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload  string             `json:"workload"`
		Seed      int64              `json:"seed"`
		Sampling  string             `json:"sampling"`
		Waterfall map[string]float64 `json:"waterfall_median_self_ms"`
		Counters  map[string]float64 `json:"window_counters"`
		Spans     []span             `json:"spans"`
	}{w.name, seed, fmt.Sprintf("1 write in %d, second half of the window", traceEvery), bars, counters, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
