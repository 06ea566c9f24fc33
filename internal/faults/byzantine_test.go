package faults

import (
	"testing"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/crypto"
	"clanbft/internal/simnet"
	"clanbft/internal/types"
)

// attackCluster runs n parties of which the last `bad` run the real engine
// behind the given mutators.
type attackCluster struct {
	net    *simnet.Net
	nodes  []*core.Node
	orders [][]types.Position
	n, bad int
}

func runAttack(t *testing.T, n, bad int, mode core.Mode, clans [][]types.NodeID,
	mutate func(i int, key *crypto.KeyPair, reg *crypto.Registry) []Mutator,
	dur time.Duration) *attackCluster {
	t.Helper()
	keys := crypto.GenerateKeys(n, 13)
	reg := crypto.NewRegistry(keys, true)
	c := &attackCluster{
		net:    simnet.New(simnet.Config{N: n, Regions: simnet.EvenRegions(n, 5), Seed: 4}),
		orders: make([][]types.Position, n),
		n:      n, bad: bad,
	}
	fnet := NewNet(n, 1, nil)
	for i := 0; i < n; i++ {
		i := i
		id := types.NodeID(i)
		if i >= n-bad {
			fnet.SetByzantine(id, mutate(i, &keys[i], reg)...)
		}
		node := core.New(core.Config{
			Self: id, N: n, Mode: mode, Clans: clans,
			Key: &keys[i], Reg: reg,
			Blocks: &fixedSource{id: id},
			Params: core.Params{RoundTimeout: 700 * time.Millisecond},
			Deliver: func(cv core.CommittedVertex) {
				c.orders[i] = append(c.orders[i], cv.Vertex.Pos())
			},
		}, fnet.Wrap(c.net.Endpoint(id), c.net.Clock(id)), c.net.Clock(id))
		c.nodes = append(c.nodes, node)
		node.Start()
		t.Cleanup(node.Stop)
	}
	c.net.Run(dur)
	for _, nd := range c.nodes {
		nd.Flush() // before the test reads c.orders
	}
	return c
}

type fixedSource struct{ id types.NodeID }

func (s *fixedSource) NextBlock(r types.Round) *types.Block {
	return &types.Block{Txs: [][]byte{{byte(s.id), byte(r)}}}
}

// assertSafeAndLive checks the honest parties' invariants.
func (c *attackCluster) assertSafeAndLive(t *testing.T, minOrdered int) {
	t.Helper()
	honest := c.n - c.bad
	for i := 0; i < honest; i++ {
		if len(c.orders[i]) < minOrdered {
			t.Fatalf("honest node %d ordered only %d (< %d)", i, len(c.orders[i]), minOrdered)
		}
	}
	for i := 1; i < honest; i++ {
		limit := len(c.orders[0])
		if len(c.orders[i]) < limit {
			limit = len(c.orders[i])
		}
		for j := 0; j < limit; j++ {
			if c.orders[i][j] != c.orders[0][j] {
				t.Fatalf("order divergence between honest nodes 0 and %d at %d", i, j)
			}
		}
	}
}

// TestChaosAttackMatrix runs every behaviour against every mode with f
// adversaries and asserts honest safety + liveness throughout.
func TestChaosAttackMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	n := 7 // f = 2
	behaviours := []struct {
		name string
		mut  func(i int, key *crypto.KeyPair, reg *crypto.Registry) []Mutator
	}{
		{"passthrough", func(i int, k *crypto.KeyPair, r *crypto.Registry) []Mutator {
			return []Mutator{Passthrough()}
		}},
		{"equivocate", func(i int, k *crypto.KeyPair, r *crypto.Registry) []Mutator {
			return []Mutator{Equivocate(k, r)}
		}},
		{"lazyvoter", func(i int, k *crypto.KeyPair, r *crypto.Registry) []Mutator {
			return []Mutator{LazyVoter()}
		}},
		{"suppresscerts", func(i int, k *crypto.KeyPair, r *crypto.Registry) []Mutator {
			return []Mutator{SuppressCerts()}
		}},
		{"flood", func(i int, k *crypto.KeyPair, r *crypto.Registry) []Mutator {
			return []Mutator{Flood(2)}
		}},
		{"mute", func(i int, k *crypto.KeyPair, r *crypto.Registry) []Mutator {
			return []Mutator{Mute()}
		}},
		{"combo", func(i int, k *crypto.KeyPair, r *crypto.Registry) []Mutator {
			if i%2 == 0 {
				return []Mutator{Equivocate(k, r), Flood(1)}
			}
			return []Mutator{LazyVoter(), SuppressCerts()}
		}},
	}
	for _, b := range behaviours {
		t.Run(b.name, func(t *testing.T) {
			c := runAttack(t, n, 2, core.ModeBaseline, nil, b.mut, 20*time.Second)
			c.assertSafeAndLive(t, n)
		})
	}
}

// TestChaosWithholdBlocksSingleClan: a Byzantine clan proposer withholds
// blocks from half the clan; the pull path must keep every honest clan
// member's execution stream complete.
func TestChaosWithholdBlocksSingleClan(t *testing.T) {
	n := 10
	clan := []types.NodeID{0, 1, 2, 3, 4, 5, 9} // includes the adversary (9)
	keys := crypto.GenerateKeys(n, 13)
	reg := crypto.NewRegistry(keys, true)
	net := simnet.New(simnet.Config{N: n, Regions: simnet.EvenRegions(n, 5), Seed: 4})
	fnet := NewNet(n, 1, nil)
	fnet.SetByzantine(9, WithholdBlocks())
	blocksSeen := make([]int, n)
	orders := make([][]types.Position, n)
	nodes := make([]*core.Node, n)
	for i := 0; i < n; i++ {
		i := i
		id := types.NodeID(i)
		node := core.New(core.Config{
			Self: id, N: n, Mode: core.ModeSingleClan,
			Clans: [][]types.NodeID{clan},
			Key:   &keys[i], Reg: reg,
			Blocks: &fixedSource{id: id},
			Params: core.Params{RoundTimeout: 700 * time.Millisecond},
			Deliver: func(cv core.CommittedVertex) {
				orders[i] = append(orders[i], cv.Vertex.Pos())
				if cv.Block != nil {
					blocksSeen[i]++
				}
			},
		}, fnet.Wrap(net.Endpoint(id), net.Clock(id)), net.Clock(id))
		node.Start()
		t.Cleanup(node.Stop)
		nodes[i] = node
	}
	net.Run(20 * time.Second)
	for _, nd := range nodes {
		nd.Flush() // before the test reads orders and blocksSeen
	}
	// Every honest clan member must have executed the adversary's blocks
	// too (pulled when withheld): block counts must match across the clan.
	ref := -1
	for _, id := range clan {
		if id == 9 {
			continue
		}
		if ref == -1 {
			ref = blocksSeen[id]
		}
		if blocksSeen[id] != ref || ref == 0 {
			t.Fatalf("clan member %d saw %d blocks (ref %d)", id, blocksSeen[id], ref)
		}
	}
	// Ordered vertices from source 9 exist (its proposals still certify:
	// enough clan members got the block directly or pulled it).
	found := false
	for _, p := range orders[0] {
		if p.Source == 9 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("withholder's vertices never ordered despite pull path")
	}
}
