package clanbft

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clanbft/internal/execution"
	"clanbft/internal/gateway"
	"clanbft/internal/gateway/load"
	"clanbft/internal/types"
)

// buildGatewayCluster wires a 4-node cluster with one executor
// per node and a gateway on node 0 whose read path aggregates over the first
// three executors (f_c = 1 for n = 4 → quorum of 2).
func buildGatewayCluster(t *testing.T, o GatewayOptions) (*Cluster, *Gateway) {
	t.Helper()
	c, err := NewCluster(Options{N: 4, MaxTxPerBlock: 256})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	execs := make([]*execution.Executor, 4)
	var execMu sync.Mutex
	for i := 0; i < 4; i++ {
		ex := execution.NewExecutor(NodeID(i), c.Keys(i))
		execs[i] = ex
		// Executors apply before the gateway's commit hook (registration
		// order), so a notified client's subsequent read sees its write.
		c.Node(i).OnCommit(func(cv Commit) {
			execMu.Lock()
			ex.Apply(cv)
			execMu.Unlock()
		})
	}
	if o.Responders == nil {
		for i := 0; i < 3; i++ {
			ex := execs[i]
			o.Responders = append(o.Responders, GatewayReaderFunc(func(dst, key []byte) ([]byte, uint64, bool) {
				execMu.Lock()
				defer execMu.Unlock()
				return ex.GetVersioned(dst, key)
			}))
		}
	}
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	gw, err := c.Node(0).ServeGateway(o)
	if err != nil {
		t.Fatalf("ServeGateway: %v", err)
	}
	c.Start()
	t.Cleanup(func() {
		gw.Close()
		c.Stop()
	})
	return c, gw
}

func TestGatewaySubmitCommitReadE2E(t *testing.T) {
	_, gw := buildGatewayCluster(t, GatewayOptions{})

	var commits, values atomic.Int64
	var gotVal atomic.Value
	cl, err := gateway.Dial(gw.Addr(), func(ev gateway.ServerEvent) {
		switch ev.Kind {
		case gateway.MsgCommit:
			commits.Add(1)
		case gateway.MsgValue:
			gotVal.Store(append([]byte(nil), ev.Value...))
			values.Add(1)
		}
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	tx := execution.EncodeTx(execution.Tx{Op: execution.OpSet, Key: []byte("greeting"), Value: []byte("hello")})
	if err := cl.Submit(1, 0, tx); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, 20*time.Second, func() bool { return commits.Load() == 1 })

	if err := cl.Read(1, 1, []byte("greeting")); err != nil {
		t.Fatalf("Read: %v", err)
	}
	waitFor(t, 10*time.Second, func() bool { return values.Load() == 1 })
	if got := gotVal.Load().([]byte); string(got) != "hello" {
		t.Fatalf("read value = %q, want %q", got, "hello")
	}
}

func TestGatewayMetricsInPipelineSnapshot(t *testing.T) {
	c, gw := buildGatewayCluster(t, GatewayOptions{})
	var commits atomic.Int64
	cl, err := gateway.Dial(gw.Addr(), func(ev gateway.ServerEvent) {
		if ev.Kind == gateway.MsgCommit {
			commits.Add(1)
		}
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	tx := execution.EncodeTx(execution.Tx{Op: execution.OpSet, Key: []byte("k"), Value: []byte("v")})
	if err := cl.Submit(2, 0, tx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool { return commits.Load() == 1 })
	snap := c.Node(0).PipelineMetrics()
	if snap.Counter("gateway.admitted") != 1 {
		t.Fatalf("gateway.admitted = %d, want 1\n%s", snap.Counter("gateway.admitted"), snap)
	}
	if snap.Hist("gateway.e2e_latency").Count != 1 {
		t.Fatalf("gateway.e2e_latency count = %d, want 1", snap.Hist("gateway.e2e_latency").Count)
	}
	if snap.Counter("intake.proposals") == 0 && snap.Hist("exec.queue_wait").Count == 0 {
		// Not fatal — just ensure the snapshot still carries pipeline keys
		// alongside gateway ones (merged registry, not a private one).
		if len(snap.Counters) < 2 {
			t.Fatalf("pipeline snapshot looks empty: %s", snap)
		}
	}
}

func TestGatewayLoadGeneratorSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load run")
	}
	_, gw := buildGatewayCluster(t, GatewayOptions{})
	rep, err := load.Run(load.Config{
		Addr:     gw.Addr(),
		Conns:    2,
		Clients:  50,
		Rate:     300,
		Duration: 2 * time.Second,
		Drain:    10 * time.Second,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("load.Run: %v", err)
	}
	if rep.ConnErrs != 0 {
		t.Fatalf("connection errors: %d", rep.ConnErrs)
	}
	if rep.Offered == 0 || rep.Committed == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.Committed < rep.Acked*9/10 {
		t.Fatalf("commit shortfall: acked=%d committed=%d", rep.Acked, rep.Committed)
	}
	if rep.E2E.Count() == 0 || rep.E2E.Quantile(0.99) == 0 {
		t.Fatalf("no latency samples: %s", rep)
	}
}

// TestTCPTxPathPoolBalanced runs the whole transaction path over real
// sockets — client frames, gateway admission and write buffers, mempool,
// blocks, wire, decode, execution, COMMIT frames — for at least fifty
// rounds and then demands the buffer pool's books balance: every pooled
// buffer the path took (read buffers, frames, per-connection write
// buffers) came back, so nothing pooled is still reachable from the block
// cache, the DAG or the state.
func TestTCPTxPathPoolBalanced(t *testing.T) {
	const writes = 400
	pc := types.StartPoolCheck()
	c, err := NewCluster(Options{N: 4, Seed: 5, Params: Params{RoundTimeout: 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	execs := make([]*execution.Executor, 4)
	for i := range execs {
		execs[i] = execution.NewExecutor(NodeID(i), nil)
		c.Node(i).OnCommit(execs[i].Apply)
	}
	gw, err := c.Node(0).ServeGateway(GatewayOptions{Addr: "127.0.0.1:0", Limits: GatewayLimits{ClientRate: 1e6}})
	if err != nil {
		t.Fatalf("ServeGateway: %v", err)
	}
	c.Start()
	var commits atomic.Int64
	cl, err := gateway.Dial(gw.Addr(), func(ev gateway.ServerEvent) {
		if ev.Kind == gateway.MsgCommit {
			commits.Add(1)
		}
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for seq := uint64(0); seq < writes; seq++ {
		tx := execution.EncodeTx(execution.Tx{Op: execution.OpSet,
			Key: []byte{'k', byte(seq % 32)}, Value: []byte{byte(seq), byte(seq >> 8), 1, 2, 3, 4}})
		if err := cl.Submit(seq%8, seq, tx); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if seq%50 == 49 {
			time.Sleep(20 * time.Millisecond) // spread the writes over several blocks
		}
	}
	waitFor(t, 30*time.Second, func() bool { return commits.Load() == writes })
	if !c.Node(0).WaitRound(50, 30*time.Second) {
		t.Fatalf("only %d rounds", c.Node(0).Round())
	}
	cl.Close()
	gw.Close()
	c.Stop()
	if got := execs[0].Executed; got < writes {
		t.Fatalf("node 0 executed %d of %d writes", got, writes)
	}
	pc.AssertBalanced(t)
}
