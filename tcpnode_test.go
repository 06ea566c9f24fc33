package clanbft

import (
	"sync/atomic"
	"testing"
	"time"
)

// bootTCP builds n real-socket nodes on loopback ports picked by the kernel,
// exchanges the bound addresses, and returns them unstarted.
func bootTCP(t *testing.T, o Options) []*TCPNode {
	t.Helper()
	book := map[NodeID]string{}
	for i := 0; i < o.N; i++ {
		book[NodeID(i)] = "127.0.0.1:0"
	}
	nodes := make([]*TCPNode, o.N)
	for i := range nodes {
		nd, err := NewTCPNode(TCPNodeOptions{Self: NodeID(i), Addrs: book, Options: o})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	for _, nd := range nodes {
		for j, peer := range nodes {
			nd.SetPeerAddr(NodeID(j), peer.Addr())
		}
	}
	return nodes
}

// TestTCPNodeReputationSchedule: NewTCPNode passes the reputation options
// through, so a real-socket cluster with one node closed pays a round timeout
// only until the committed evidence demotes the dead leader; under the static
// rotation it would keep paying one every n rounds.
func TestTCPNodeReputationSchedule(t *testing.T) {
	nodes := bootTCP(t, Options{
		N: 4, Seed: 11, Params: Params{RoundTimeout: 300 * time.Millisecond,
			LeaderReputation: true, ReputationWindow: 1 << 20, ReconfigDelay: 4},
	})
	for _, nd := range nodes {
		nd.Start()
	}
	for _, nd := range nodes[:3] {
		defer nd.Close()
	}
	if !nodes[0].WaitRound(4, 10*time.Second) {
		t.Fatal("cluster never left round 4")
	}
	nodes[3].Close()
	waitFor(t, 20*time.Second, func() bool { return nodes[0].Metrics().ReputationOffenses > 0 })
	// The demotion applies ReconfigDelay+1 rounds past the anchor that
	// ordered the evidence; give it twice that, then demand a long quiet run.
	fence := nodes[0].Round() + 10
	if !nodes[0].WaitRound(fence, 20*time.Second) {
		t.Fatalf("stuck at round %d before the demotion fence", nodes[0].Round())
	}
	before := nodes[0].Metrics().Timeouts
	if !nodes[0].WaitRound(fence+60, 20*time.Second) {
		t.Fatalf("stuck at round %d after the demotion fence", nodes[0].Round())
	}
	if after := nodes[0].Metrics().Timeouts; after != before {
		t.Fatalf("timeouts grew %d -> %d over 60 rounds past the demotion fence", before, after)
	}
}

// TestTCPNodeVerifyQueueExcludesSelfAndPulls: only signed messages from peers
// are queued on the verify pool — never more than the node received, which
// self-sends used to push it past. The subtest keeps the name of the pooled
// case from when a pool-bypassing serial variant existed beside it.
func TestTCPNodeVerifyQueueExcludesSelfAndPulls(t *testing.T) {
	t.Run("serial=false", func(t *testing.T) {
		nodes := bootTCP(t, Options{N: 4, Seed: 12})
		var commits atomic.Int64
		nodes[0].OnCommit(func(Commit) { commits.Add(1) })
		for _, nd := range nodes {
			nd.Start()
			defer nd.Close()
		}
		nodes[1].Submit([]byte("queued"))
		waitFor(t, 20*time.Second, func() bool { return commits.Load() >= 40 })
		for i, nd := range nodes {
			// VerifyQueued is read first: both counters only grow, and
			// every queued message was counted as received before it.
			queued, recv := nd.Stats().VerifyQueued, nd.Stats().MsgsRecv
			if queued == 0 || queued > recv {
				t.Fatalf("node %d queued %d messages for verification out of %d received", i, queued, recv)
			}
		}
	})
}
