package clanbft

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"clanbft/internal/core"
	"clanbft/internal/harness"
)

// TestOneGenesisPerSeed: NewCluster, NewTCPNode, SignReconfigTx and
// harness.Run derive a deployment's epoch 0 from one seed in one way. The
// four hold the same key for every party, and the simulator's clans are the
// library's whenever it is given no regions to spread them over (a member
// set restricts the universe, so region balance is off).
func TestOneGenesisPerSeed(t *testing.T) {
	const n = 7
	for _, seed := range []int64{0, 7, 42} {
		for _, mode := range []Mode{ModeSingleClan, ModeMultiClan} {
			for _, members := range [][]NodeID{{0, 1, 2, 3, 4, 5, 6}, {0, 2, 3, 5, 6}} {
				name := fmt.Sprintf("seed=%d/%v/members=%v", seed, mode, members)
				opts := Options{N: n, Mode: mode, ClanSize: 4, NumClans: 2, Seed: seed, Params: Params{Members: members}}
				cluster, err := NewCluster(opts)
				if err != nil {
					t.Fatal(err)
				}
				book := map[NodeID]string{}
				for i := 0; i < n; i++ {
					book[NodeID(i)] = "127.0.0.1:0"
				}
				tcp, err := NewTCPNode(TCPNodeOptions{Self: 0, Addrs: book, Options: opts})
				if err != nil {
					t.Fatal(err)
				}
				sim := harness.Config{Mode: mode, N: n, ClanSize: 4, NumClans: 2, Seed: seed, TxPerProposal: 1,
					Warmup: 100 * time.Millisecond, Measure: 100 * time.Millisecond,
					Params: core.Params{Members: members}}
				simGenesis := harness.Genesis(sim)
				for i := 0; i < n; i++ {
					id := NodeID(i)
					pub := cluster.Keys(i).Pub
					tx := SignReconfigTx(n, seed, ReconfigJoin, id, "x")
					if !bytes.Equal(tcp.genesis.Keys[i].Pub, pub) || !bytes.Equal(tx.PubKey[:], pub) || !bytes.Equal(simGenesis.Keys[i].Pub, pub) {
						t.Fatalf("%s: party %d's key differs between the library, SignReconfigTx and the simulator", name, id)
					}
				}
				runClans := harness.Run(sim).Epochs[0].Clans
				if !reflect.DeepEqual(tcp.Clans(), cluster.Clans()) || !reflect.DeepEqual(runClans, cluster.Clans()) {
					t.Fatalf("%s: clans %v (NewCluster), %v (NewTCPNode), %v (harness.Run)", name, cluster.Clans(), tcp.Clans(), runClans)
				}
				cluster.Stop()
				tcp.Close()
			}
		}
	}
}
