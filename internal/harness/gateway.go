package harness

import (
	"fmt"
	"io"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/crypto"
	"clanbft/internal/gateway"
	"clanbft/internal/gateway/load"
	"clanbft/internal/mempool"
	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// GatewayOverloadConfig parameterizes the serving-front-door overload
// experiment. Unlike the paper-figure experiments, this one runs on the wall
// clock with a real TCP gateway: clients cross real sockets, admission
// control reads real time, and the consensus core runs in-process over
// ChanNet.
type GatewayOverloadConfig struct {
	// N is the cluster size (default 4).
	N int
	// MaxTxPerBlock bounds one proposal's drain (default 512).
	MaxTxPerBlock int
	// ExecCost models per-transaction execution work on the exec stage's
	// goroutine (default 250µs). It fixes the node's sustainable commit
	// rate at ~1/ExecCost tx/s, making "2× sustainable" a deterministic
	// target instead of a machine-speed lottery.
	ExecCost time.Duration
	// Warmup runs an unreported 0.2× phase to spin up rounds (default 2s).
	Warmup time.Duration
	// Phase is each measured window's length (default 8s).
	Phase time.Duration
	// Conns / Clients size the load generator (defaults 4 / 2000).
	Conns   int
	Clients int
	// TxSize pads each transaction (default 128 bytes).
	TxSize int
	// QueueWaitHigh is the overload monitor's exec queue-wait threshold
	// (default 150ms — low, so the experiment's oscillation is tight and
	// admitted-request latency stays bounded).
	QueueWaitHigh time.Duration
	Seed          int64
}

func (c *GatewayOverloadConfig) fill() {
	if c.N == 0 {
		c.N = 4
	}
	if c.MaxTxPerBlock == 0 {
		c.MaxTxPerBlock = 512
	}
	if c.ExecCost == 0 {
		c.ExecCost = 250 * time.Microsecond
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Phase == 0 {
		c.Phase = 8 * time.Second
	}
	if c.Conns == 0 {
		c.Conns = 4
	}
	if c.Clients == 0 {
		c.Clients = 2000
	}
	if c.TxSize == 0 {
		c.TxSize = 128
	}
	if c.QueueWaitHigh == 0 {
		c.QueueWaitHigh = 150 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// GatewayRow is one measured phase.
type GatewayRow struct {
	Phase      string
	OfferedTPS float64 // configured open-loop arrival rate
	Offered    uint64  // submissions actually written
	Acked      uint64
	Committed  uint64
	Rejected   uint64
	GoodputTPS float64
	P50        time.Duration // e2e submit→commit of admitted+committed
	P99        time.Duration
	P999       time.Duration
	Max        time.Duration
	RejectsBy  map[string]uint64
	Hist       *load.Hist // full e2e distribution (artifact export)
}

// GatewayOverloadResult is the experiment outcome. The headline claim: at 2×
// the sustainable load, goodput holds within ~10% of the sustainable-load
// phase while the admission layer's rejects absorb the excess — overload
// saturates at the gateway, not inside the consensus core.
type GatewayOverloadResult struct {
	SustainableTPS float64
	Rows           []GatewayRow
	// Ratio is overload-phase goodput over sustainable-phase goodput.
	Ratio float64
	// ShedOK: the overload phase rejected work AND held goodput.
	ShedOK bool
}

// GatewayOverload builds an N-node wall-clock cluster over ChanNet, fronts
// node 0 with a TCP gateway, and drives it through two open-loop phases:
// once at the sustainable rate (1/ExecCost) and once at double it.
func GatewayOverload(cfg GatewayOverloadConfig) (*GatewayOverloadResult, error) {
	cfg.fill()
	net := transport.NewChanNet(cfg.N, 0)
	keys := crypto.GenerateKeys(cfg.N, uint64(cfg.Seed)+1)
	reg := crypto.NewRegistry(keys, false)
	pools := make([]*mempool.Pool, cfg.N)
	nodes := make([]*core.Node, cfg.N)
	var gw *gateway.Gateway // set before Start; read by node 0's deliver
	for i := 0; i < cfg.N; i++ {
		id := types.NodeID(i)
		pools[i] = mempool.NewPool(cfg.MaxTxPerBlock)
		deliver := func(core.CommittedVertex) {}
		if i == 0 {
			deliver = func(cv core.CommittedVertex) {
				if cv.Block == nil || cv.Block.IsSynthetic() || len(cv.Block.Txs) == 0 {
					return
				}
				// The execution model: each transaction costs ExecCost on
				// this (the exec stage's) goroutine. Offered load beyond
				// 1/ExecCost piles up behind it and surfaces as
				// exec.queue_wait — the signal the gateway's overload
				// monitor watches.
				time.Sleep(time.Duration(len(cv.Block.Txs)) * cfg.ExecCost)
				gw.NotifyCommitted(uint64(cv.Vertex.Round), cv.Block.Txs)
			}
		}
		nodes[i] = core.New(core.Config{
			Self:         id,
			N:            cfg.N,
			Mode:         core.ModeBaseline,
			Key:          &keys[i],
			Reg:          reg,
			Costs:        crypto.ZeroCosts(),
			Blocks:       pools[i],
			RoundTimeout: 3 * time.Second,
			ExecQueue:    ExecQueue,
			Deliver:      deliver,
		}, net.Endpoint(id), net.Clock(id))
	}

	gw, err := gateway.New(gateway.Config{
		Addr:    "127.0.0.1:0",
		Submit:  func(tx []byte) { pools[0].Submit(tx) },
		Depth:   pools[0].Depth,
		Metrics: nodes[0].PipelineMetrics(),
		Limits: gateway.Limits{
			// Per-client buckets out of the way: this experiment measures
			// the global backpressure layer.
			ClientRate:    1e6,
			MempoolHigh:   cfg.MaxTxPerBlock * 8,
			QueueWaitHigh: cfg.QueueWaitHigh,
			SamplePeriod:  25 * time.Millisecond,
		},
	})
	if err != nil {
		net.Close()
		return nil, err
	}
	defer func() {
		gw.Close()
		for _, n := range nodes {
			n.Flush()
		}
		for _, n := range nodes {
			n.Stop()
		}
		net.Close()
	}()
	for _, n := range nodes {
		n.Start()
	}

	sustainable := 1.0 / cfg.ExecCost.Seconds()
	runPhase := func(name string, rate float64, dur time.Duration) (GatewayRow, error) {
		rep, err := load.Run(load.Config{
			Addr:     gw.Addr(),
			Conns:    cfg.Conns,
			Clients:  cfg.Clients,
			Rate:     rate,
			Duration: dur,
			TxSize:   cfg.TxSize,
			Seed:     cfg.Seed,
		})
		if err != nil {
			return GatewayRow{}, fmt.Errorf("harness: gateway phase %s: %w", name, err)
		}
		return GatewayRow{
			Phase:      name,
			OfferedTPS: rate,
			Offered:    rep.Offered,
			Acked:      rep.Acked,
			Committed:  rep.Committed,
			Rejected:   rep.Rejected,
			GoodputTPS: rep.GoodputTPS,
			P50:        rep.E2E.Quantile(0.50),
			P99:        rep.E2E.Quantile(0.99),
			P999:       rep.E2E.Quantile(0.999),
			Max:        rep.E2E.Max(),
			RejectsBy:  rep.RejectsBy,
			Hist:       rep.E2E,
		}, nil
	}

	if _, err := runPhase("warmup", 0.2*sustainable, cfg.Warmup); err != nil {
		return nil, err
	}
	r1, err := runPhase("sustainable-1x", sustainable, cfg.Phase)
	if err != nil {
		return nil, err
	}
	r2, err := runPhase("overload-2x", 2*sustainable, cfg.Phase)
	if err != nil {
		return nil, err
	}

	res := &GatewayOverloadResult{
		SustainableTPS: sustainable,
		Rows:           []GatewayRow{r1, r2},
	}
	if r1.GoodputTPS > 0 {
		res.Ratio = r2.GoodputTPS / r1.GoodputTPS
	}
	res.ShedOK = r2.Rejected > 0 && res.Ratio >= 0.9
	return res, nil
}

// PrintGatewayOverload renders the experiment like the paper-figure tables.
func PrintGatewayOverload(w io.Writer, res *GatewayOverloadResult) {
	fmt.Fprintf(w, "Gateway overload shed (sustainable %.0f tx/s, exec-bound)\n", res.SustainableTPS)
	fmt.Fprintf(w, "%-16s %10s %10s %10s %10s %10s %9s %9s %9s\n",
		"phase", "offered/s", "offered", "committed", "rejected", "goodput/s", "p50", "p99", "p999")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-16s %10.0f %10d %10d %10d %10.0f %9v %9v %9v\n",
			r.Phase, r.OfferedTPS, r.Offered, r.Committed, r.Rejected, r.GoodputTPS,
			r.P50.Round(time.Millisecond), r.P99.Round(time.Millisecond), r.P999.Round(time.Millisecond))
		for reason, n := range r.RejectsBy {
			fmt.Fprintf(w, "%-16s   rejected[%s] = %d\n", "", reason, n)
		}
	}
	fmt.Fprintf(w, "goodput ratio (2x/1x) = %.3f; overload shed %s\n",
		res.Ratio, map[bool]string{true: "OK: admission saturates before the core", false: "NOT OK"}[res.ShedOK])
}
