package clanbft

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPNodeReputationSchedule: NewTCPNode passes the reputation options
// through, so a real-socket cluster with one node closed pays a round timeout
// only until the committed evidence demotes the dead leader; under the static
// rotation it would keep paying one every n rounds.
func TestTCPNodeReputationSchedule(t *testing.T) {
	c, err := NewCluster(Options{
		N: 4, Seed: 11, Params: Params{RoundTimeout: 300 * time.Millisecond,
			LeaderReputation: true, ReputationWindow: 1 << 20, ReconfigDelay: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for i := 0; i < 3; i++ {
		defer c.Node(i).Close()
	}
	nd := c.Node(0)
	if !nd.WaitRound(4, 10*time.Second) {
		t.Fatal("cluster never left round 4")
	}
	c.Node(3).Close()
	waitFor(t, 20*time.Second, func() bool { return nd.Metrics().ReputationOffenses > 0 })
	// The demotion applies ReconfigDelay+1 rounds past the anchor that
	// ordered the evidence; give it twice that, then demand a long quiet run.
	fence := nd.Round() + 10
	if !nd.WaitRound(fence, 20*time.Second) {
		t.Fatalf("stuck at round %d before the demotion fence", nd.Round())
	}
	before := nd.Metrics().Timeouts
	if !nd.WaitRound(fence+60, 20*time.Second) {
		t.Fatalf("stuck at round %d after the demotion fence", nd.Round())
	}
	if after := nd.Metrics().Timeouts; after != before {
		t.Fatalf("timeouts grew %d -> %d over 60 rounds past the demotion fence", before, after)
	}
}

// TestTCPNodeVerifyQueueExcludesSelfAndPulls: only signed messages from peers
// are queued on the verify pool — never more than the node received, which
// self-sends used to push it past. The subtest keeps the name of the pooled
// case from when a pool-bypassing serial variant existed beside it.
func TestTCPNodeVerifyQueueExcludesSelfAndPulls(t *testing.T) {
	t.Run("serial=false", func(t *testing.T) {
		c, err := NewCluster(Options{N: 4, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		var commits atomic.Int64
		c.Node(0).OnCommit(func(Commit) { commits.Add(1) })
		c.Start()
		defer c.Stop()
		c.Node(1).Submit([]byte("queued"))
		waitFor(t, 20*time.Second, func() bool { return commits.Load() >= 40 })
		for i := 0; i < 4; i++ {
			// VerifyQueued is read first: both counters only grow, and
			// every queued message was counted as received before it.
			queued, recv := c.Node(i).Stats().VerifyQueued, c.Node(i).Stats().MsgsRecv
			if queued == 0 || queued > recv {
				t.Fatalf("node %d queued %d messages for verification out of %d received", i, queued, recv)
			}
		}
	})
}
