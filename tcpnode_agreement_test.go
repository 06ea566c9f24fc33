package clanbft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"clanbft/internal/types"
)

// runTCPCluster brings up a 4-node TCP cluster, drives it to at least
// minCommits commits per node, and returns each node's commit order.
func runTCPCluster(t *testing.T, seed int64, minCommits int) [][]string {
	t.Helper()
	const n = 4
	nodes := bootTCP(t, Options{N: n, Seed: seed, RoundTimeout: 2 * time.Second})
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
		nd.Submit([]byte(fmt.Sprintf("ab-tx-%d", i)))
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
	if nodes[1].Stats().Flushes == 0 {
		t.Fatal("the run recorded no flushes")
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

// TestTCPClusterAgreementPoolBalanced runs the real-socket cluster — reused
// read buffers and gathered writes on every link — to cross-node agreement,
// and then demands that no pooled buffer leaked. (The simulator-side
// determinism test covers schedule identity; real sockets are inherently
// timing-dependent, so here the invariant is agreement, not identical
// schedules.)
func TestTCPClusterAgreementPoolBalanced(t *testing.T) {
	pc := types.StartPoolCheck()
	orders := runTCPCluster(t, 11, 8)
	assertAgreement(t, orders)
	pc.AssertBalanced(t)
}
