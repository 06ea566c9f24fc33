package clanbft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"clanbft/internal/transport"
	"clanbft/internal/types"
)

// runTCPCluster brings up a 4-node TCP cluster with the zero-copy receive
// path and sender-side coalescing either at their defaults (on) or both
// disabled, drives it to at least minCommits commits per node, and returns
// each node's commit order. Used by the A/B test below to show the wire-path
// optimizations do not affect agreement.
func runTCPCluster(t *testing.T, zerocopy bool, seed int64, minCommits int) [][]string {
	t.Helper()
	const n = 4
	nodes := bootTCP(t, Options{N: n, Seed: seed, RoundTimeout: 2 * time.Second})
	if !zerocopy {
		// White-box: flip the transport back to the copying decode path
		// and one-writev-per-frame before any traffic flows.
		for _, nd := range nodes {
			nd.ep.SetAliasDecode(false)
			nd.ep.SetCoalescing(transport.CoalesceConfig{})
		}
	}
	var mu sync.Mutex
	orders := make([][]string, n)
	txSeen := map[string]bool{}
	for i := 0; i < n; i++ {
		i := i
		nodes[i].OnCommit(func(cv Commit) {
			mu.Lock()
			orders[i] = append(orders[i], fmt.Sprintf("%d/%d", cv.Vertex.Round, cv.Vertex.Source))
			if i == 0 && cv.Block != nil {
				for _, tx := range cv.Block.Txs {
					txSeen[string(tx)] = true
				}
			}
			mu.Unlock()
		})
	}
	for _, nd := range nodes {
		nd.Start()
	}
	for i, nd := range nodes {
		nd.Submit([]byte(fmt.Sprintf("ab-tx-%d-%v", i, zerocopy)))
	}
	waitFor(t, 20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(txSeen) < n {
			return false
		}
		for i := 0; i < n; i++ {
			if len(orders[i]) < minCommits {
				return false
			}
		}
		return true
	})
	if zerocopy {
		// With the defaults on, real traffic must have exercised the new
		// machinery: batched flushes on the send side.
		st := nodes[1].Stats()
		if st.Flushes == 0 {
			t.Fatal("zero-copy run recorded no flushes")
		}
	}
	for _, nd := range nodes {
		nd.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	return orders
}

// assertAgreement checks the defining SMR property on a run's outputs: every
// node's commit sequence is a prefix-consistent view of one total order.
func assertAgreement(t *testing.T, orders [][]string) {
	t.Helper()
	min := len(orders[0])
	for _, o := range orders {
		if len(o) < min {
			min = len(o)
		}
	}
	for i := 1; i < len(orders); i++ {
		for j := 0; j < min; j++ {
			if orders[i][j] != orders[0][j] {
				t.Fatalf("node %d diverges at %d: %s vs %s", i, j, orders[i][j], orders[0][j])
			}
		}
	}
}

// TestTCPClusterZeroCopyAB runs the real-socket cluster with the zero-copy
// receive path + coalescing at their defaults and again with both disabled:
// both configurations must reach cross-node agreement, and neither may leak a
// pooled buffer. (The simulator-side determinism test covers schedule
// identity; real sockets are inherently timing-dependent, so here the
// invariant is agreement, not identical schedules.)
func TestTCPClusterZeroCopyAB(t *testing.T) {
	for _, zc := range []bool{true, false} {
		t.Run(fmt.Sprintf("zerocopy=%v", zc), func(t *testing.T) {
			pc := types.StartPoolCheck()
			orders := runTCPCluster(t, zc, 11, 8)
			assertAgreement(t, orders)
			pc.AssertBalanced(t)
		})
	}
}
