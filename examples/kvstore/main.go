// kvstore demonstrates the paper's agreement/execution separation (Section
// 1): consensus runs across the whole 10-party tribe, but only the 6-member
// clan stores payloads and executes transactions. A client submits KV
// operations to clan members and accepts each result once f_c+1 = 3
// executors return matching signed responses — enough to guarantee at least
// one honest executor stands behind the answer.
//
// Each clan member executes the committed order serially on its execution
// goroutine, off the consensus handler, one committed vertex per OnCommit
// call.
package main

import (
	"fmt"
	"sync"
	"time"

	"clanbft"
)

func main() {
	cluster, err := clanbft.NewCluster(clanbft.Options{
		N:        10,
		Mode:     clanbft.ModeSingleClan,
		ClanSize: 6,
		Seed:     7,
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Stop()

	clan := cluster.Clans()[0]
	fmt.Printf("tribe n=10, clan %v (f_c = %d, accept at %d matching responses)\n",
		clan, cluster.ClanFaultBound(0), cluster.ClanFaultBound(0)+1)

	// Each clan member runs an executor over its committed stream.
	var mu sync.Mutex
	collector := cluster.NewCollector(0)
	accepted := map[string]string{}
	collector.Accepted = func(tx clanbft.TxID, result []byte) {}

	for _, id := range clan {
		ex := cluster.NewExecutor(int(id))
		ex.Emit = func(r clanbft.Response) {
			// In a deployment this response travels to the client;
			// here the "network" is a function call.
			mu.Lock()
			collector.Add(r)
			mu.Unlock()
		}
		cluster.OnCommit(int(id), ex.Apply)
	}

	cluster.Start()

	// The client workload: writes followed by reads.
	type pending struct {
		id   clanbft.TxID
		desc string
	}
	var txs []pending
	submit := func(t clanbft.Tx, desc string) {
		raw := clanbft.EncodeTx(t)
		txs = append(txs, pending{clanbft.TxIDOf(raw), desc})
		cluster.Submit(raw)
	}
	submit(clanbft.Tx{Op: clanbft.OpSet, Key: []byte("alice"), Value: []byte("100")}, "SET alice=100")
	submit(clanbft.Tx{Op: clanbft.OpSet, Key: []byte("bob"), Value: []byte("50")}, "SET bob=50")
	submit(clanbft.Tx{Op: clanbft.OpGet, Key: []byte("alice")}, "GET alice")
	submit(clanbft.Tx{Op: clanbft.OpDel, Key: []byte("bob")}, "DEL bob")
	submit(clanbft.Tx{Op: clanbft.OpGet, Key: []byte("bob")}, "GET bob")

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		doneCount := 0
		for _, p := range txs {
			if res, ok := collector.Result(p.id); ok {
				if _, seen := accepted[p.desc]; !seen {
					accepted[p.desc] = string(res)
					fmt.Printf("client accepted %-16s -> %q (f_c+1 matching responses)\n", p.desc, res)
				}
				doneCount++
			}
		}
		mu.Unlock()
		if doneCount == len(txs) {
			fmt.Println("all results accepted with honest-majority guarantees")
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("timed out")
}
