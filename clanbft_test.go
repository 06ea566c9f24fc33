package clanbft

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

func TestClusterCommitsSubmittedTxs(t *testing.T) {
	c, err := NewCluster(Options{N: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	var mu sync.Mutex
	committed := map[string]bool{}
	c.Node(0).OnCommit(func(cv Commit) {
		if cv.Block == nil {
			return
		}
		mu.Lock()
		for _, tx := range cv.Block.Txs {
			committed[string(tx)] = true
		}
		mu.Unlock()
	})
	c.Start()
	want := []string{}
	for i := 0; i < 20; i++ {
		tx := fmt.Sprintf("tx-%d", i)
		want = append(want, tx)
		c.Submit([]byte(tx))
	}
	waitFor(t, 15*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, tx := range want {
			if !committed[tx] {
				return false
			}
		}
		return true
	})
}

// TestBlockingOnCommitDoesNotStallConsensus: node 0's OnCommit blocks on its
// first call, and node 0 still goes on through ten more rounds — commit
// delivery runs on the node's execution goroutine, never on its consensus
// handler.
func TestBlockingOnCommitDoesNotStallConsensus(t *testing.T) {
	c, err := NewCluster(Options{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c.Node(0).OnCommit(func(Commit) {
		once.Do(func() {
			close(entered)
			<-release
		})
	})
	c.Start()
	defer c.Stop()
	defer close(release) // before Stop, which waits for the callback
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("node 0 committed nothing")
	}
	advanced := make(chan struct{})
	go func() {
		for from := c.Node(0).Round(); c.Node(0).Round() < from+10; {
			time.Sleep(5 * time.Millisecond)
		}
		close(advanced)
	}()
	select {
	case <-advanced:
	case <-time.After(10 * time.Second):
		t.Fatal("node 0 advanced fewer than 10 rounds while its OnCommit blocked")
	}
}

func TestClusterTotalOrderAcrossNodes(t *testing.T) {
	c, err := NewCluster(Options{N: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var mu sync.Mutex
	orders := make([][]string, 4)
	for i := 0; i < 4; i++ {
		i := i
		c.Node(i).OnCommit(func(cv Commit) {
			mu.Lock()
			orders[i] = append(orders[i], fmt.Sprintf("%d/%d", cv.Vertex.Round, cv.Vertex.Source))
			mu.Unlock()
		})
	}
	c.Start()
	for i := 0; i < 10; i++ {
		c.Submit([]byte(fmt.Sprintf("t%d", i)))
	}
	waitFor(t, 15*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < 4; i++ {
			if len(orders[i]) < 8 {
				return false
			}
		}
		return true
	})
	mu.Lock()
	defer mu.Unlock()
	min := len(orders[0])
	for _, o := range orders {
		if len(o) < min {
			min = len(o)
		}
	}
	for i := 1; i < 4; i++ {
		for j := 0; j < min; j++ {
			if orders[i][j] != orders[0][j] {
				t.Fatalf("node %d diverges at %d: %s vs %s", i, j, orders[i][j], orders[0][j])
			}
		}
	}
}

func TestSingleClanClusterRouting(t *testing.T) {
	c, err := NewCluster(Options{N: 7, Mode: ModeSingleClan, ClanSize: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	clans := c.Clans()
	if len(clans) != 1 || len(clans[0]) != 5 {
		t.Fatalf("clans = %v", clans)
	}
	proposers := c.Proposers()
	if len(proposers) != 5 {
		t.Fatalf("proposers = %v", proposers)
	}
	inClan := map[NodeID]bool{}
	for _, id := range clans[0] {
		inClan[id] = true
	}
	for _, p := range proposers {
		if !inClan[p] {
			t.Fatalf("non-clan proposer %d", p)
		}
	}
	if c.ClanFaultBound(0) != 2 {
		t.Fatalf("fc = %d", c.ClanFaultBound(0))
	}
	// Submit routes only to clan members.
	for i := 0; i < 10; i++ {
		if id := c.Submit([]byte{byte(i)}); !inClan[id] {
			t.Fatalf("tx routed to non-clan node %d", id)
		}
	}
}

func TestPlanClanSize(t *testing.T) {
	if got := PlanClanSize(50, 1e-6); got != 32 {
		t.Fatalf("PlanClanSize(50) = %d, want 32", got)
	}
	p := PlanMultiClanFailure(150, 2)
	if p < 3e-6 || p > 5e-6 {
		t.Fatalf("PlanMultiClanFailure(150,2) = %g", p)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewCluster(Options{N: 3}); err == nil {
		t.Fatal("accepted n=3")
	}
}

func TestClusterPersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCluster(Options{N: 4, Seed: 4, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	c.Node(0).OnCommit(func(cv Commit) { mu.Lock(); count++; mu.Unlock() })
	c.Start()
	c.Submit([]byte("persist me"))
	waitFor(t, 15*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return count > 4 })
	c.Stop()
	// Stores must contain vertex records.
	st, err := NewCluster(Options{N: 4, Seed: 4, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.Stop()
}

func TestTCPNodesReachConsensus(t *testing.T) {
	const n = 4
	c, err := NewCluster(Options{N: n, Seed: 5, Params: Params{RoundTimeout: 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[string]bool{}
	c.Node(0).OnCommit(func(cv Commit) {
		if cv.Block == nil {
			return
		}
		mu.Lock()
		for _, tx := range cv.Block.Txs {
			seen[string(tx)] = true
		}
		mu.Unlock()
	})
	c.Start()
	defer c.Stop()
	for i := 0; i < n; i++ {
		c.Node(i).Submit([]byte(fmt.Sprintf("tcp-tx-%d", i)))
	}
	waitFor(t, 20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == n
	})
	if !c.Node(2).WaitRound(3, 10*time.Second) {
		t.Fatalf("node 2 stuck at round %d", c.Node(2).Round())
	}
	if c.Node(1).Stats().MsgsSent == 0 {
		t.Fatal("no wire traffic counted")
	}
}

// TestClusterTrafficCrossesSockets: a cluster's nodes talk over loopback
// sockets, so once the cluster commits every node has flushed frames.
func TestClusterTrafficCrossesSockets(t *testing.T) {
	c, err := NewCluster(Options{N: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var commits atomic.Int64
	c.Node(0).OnCommit(func(Commit) { commits.Add(1) })
	c.Start()
	defer c.Stop()
	waitFor(t, 15*time.Second, func() bool { return commits.Load() >= 8 })
	for i := 0; i < 4; i++ {
		if f := c.Node(i).PipelineMetrics().Counter("transport.flushes"); f == 0 {
			t.Fatalf("node %d flushed no frame", i)
		}
	}
}

// TestFaultBoundOutsideTheClan: in single-clan mode the clan's executors
// answer every read, so a node outside the clan waits for the clan's f_c+1
// matching answers, as a member does — not the tribe's, which the clan
// cannot supply.
func TestFaultBoundOutsideTheClan(t *testing.T) {
	c, err := NewCluster(Options{N: 7, Mode: ModeSingleClan, ClanSize: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 0; i < 7; i++ {
		if got, want := c.Node(i).FaultBound(), c.ClanFaultBound(0); got != want {
			t.Fatalf("node %d (clan %v) reads at f_c = %d, want the clan's %d", i, c.Clans()[0], got, want)
		}
	}
}

// TestClusterAnchorsEveryMember: a cluster's default ordering path makes every
// member's vertex an anchor, so several commit directly each round.
func TestClusterAnchorsEveryMember(t *testing.T) {
	c, err := NewCluster(Options{N: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var mu sync.Mutex
	count := 0
	c.Node(0).OnCommit(func(cv Commit) { mu.Lock(); count++; mu.Unlock() })
	c.Start()
	c.Submit([]byte("ml"))
	waitFor(t, 15*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return count > 8 })
	if m := c.Node(0).Metrics(); m.DirectCommits < 2 {
		t.Fatalf("direct commits = %d", m.DirectCommits)
	}
}

func TestClusterExecutorIntegration(t *testing.T) {
	c, err := NewCluster(Options{N: 4, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var mu sync.Mutex
	collector := c.NewCollector(0)
	execs := make([]*Executor, 4)
	for i := 0; i < 4; i++ {
		i := i
		execs[i] = c.NewExecutor(i)
		execs[i].Emit = func(r Response) {
			collector.Add(r) // mu held by the Apply caller below
		}
		c.Node(i).OnCommit(func(cv Commit) {
			mu.Lock()
			execs[i].Apply(cv)
			mu.Unlock()
		})
	}
	c.Start()
	raw := EncodeTx(Tx{Op: OpSet, Key: []byte("k"), Value: []byte("v")})
	c.Submit(raw)
	waitFor(t, 15*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		_, ok := collector.Result(TxIDOf(raw))
		return ok
	})
	// All executors converge on one root.
	waitFor(t, 15*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		r0 := execs[0].StateRoot()
		for _, e := range execs[1:] {
			if e.StateRoot() != r0 {
				return false
			}
		}
		return execs[0].Executed > 0
	})
	// Snapshot transfer to a late joiner.
	mu.Lock()
	snap := execs[0].Snapshot()
	root0 := execs[0].StateRoot()
	mu.Unlock()
	late := c.NewExecutor(3)
	if !late.Restore(snap) {
		t.Fatal("restore failed")
	}
	if late.StateRoot() != root0 {
		t.Fatal("transferred state diverges")
	}
}
