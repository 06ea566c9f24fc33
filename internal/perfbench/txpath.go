package perfbench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"clanbft/internal/core"
	"clanbft/internal/execution"
	"clanbft/internal/gateway"
	"clanbft/internal/types"
)

// The TxPath rows count what the steady-state transaction path allocates,
// layer by layer. Their gated figures are allocs/op and bytes/op: counts that
// repeat exactly on any machine.

// txPathBlock is n SET transactions over keys 0..n-1 with size-byte values.
func txPathBlock(n, size int, fill byte) *types.Block {
	blk := &types.Block{Round: 1, Source: 1}
	val := make([]byte, size)
	for i := range val {
		val[i] = fill
	}
	for i := 0; i < n; i++ {
		blk.Txs = append(blk.Txs, execution.EncodeTx(execution.Tx{
			Op: execution.OpSet, Key: []byte(fmt.Sprintf("w%08x", i)), Value: val}))
	}
	return blk
}

// TxPathApply executes one 1 000-write block per op over keys that already
// hold same-size values — the steady state of a write workload. Decoding,
// the state update, the result and the root fold allocate nothing.
func TxPathApply(b *testing.B) {
	ex := execution.NewExecutor(0, nil)
	ex.Apply(core.CommittedVertex{Block: txPathBlock(1000, 128, 1)})
	cv := core.CommittedVertex{Block: txPathBlock(1000, 128, 2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Apply(cv)
	}
}

// TxPathDigest hashes one 1 000-transaction block per op: streamed through a
// pooled hasher, never marshalled.
func TxPathDigest(b *testing.B) {
	blk := txPathBlock(1000, 128, 1)
	var sink types.Hash
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = blk.Digest()
	}
	_ = sink
}

// TxPathBufpool is one GetBuf/PutBuf round trip per op: the buffer and its
// slice header both recycle.
func TxPathBufpool(b *testing.B) {
	types.PutBuf(types.GetBuf(4096))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := types.GetBuf(4096)
		buf = append(buf, byte(i))
		types.PutBuf(buf)
	}
}

// txPathGatewayBatch is how many transactions one TxPathGateway op carries.
const txPathGatewayBatch = 256

// TxPathGateway takes txPathGatewayBatch transactions per op through the
// serving front door over real sockets with consensus stubbed out: client
// frame, admission, pending table, ACK, then one NotifyCommitted for the
// batch and the COMMIT frames back. The one allocation per transaction that
// remains is admission's copy of the payload out of the read buffer.
func TxPathGateway(b *testing.B) {
	var mu sync.Mutex
	var queue [][]byte
	gw, err := gateway.New(gateway.Config{
		Addr: "127.0.0.1:0",
		Submit: func(tx []byte) {
			mu.Lock()
			queue = append(queue, tx)
			mu.Unlock()
		},
		Depth:  func() int { return 0 },
		Limits: gateway.Limits{ClientRate: 1e9},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	var acks, commits atomic.Int64
	ackDone, commitDone := make(chan struct{}, 1), make(chan struct{}, 1)
	cl, err := gateway.Dial(gw.Addr(), func(ev gateway.ServerEvent) {
		switch ev.Kind {
		case gateway.MsgAck:
			if acks.Add(1)%txPathGatewayBatch == 0 {
				ackDone <- struct{}{}
			}
		case gateway.MsgCommit:
			if commits.Add(1)%txPathGatewayBatch == 0 {
				commitDone <- struct{}{}
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	tx := make([]byte, 140)
	seq := uint64(0)
	batch := func() {
		for i := 0; i < txPathGatewayBatch; i++ {
			tx[0], tx[1], tx[2], tx[3] = byte(seq), byte(seq>>8), byte(seq>>16), byte(seq>>24)
			if err := cl.Submit(seq%64, seq, tx); err != nil {
				b.Fatal(err)
			}
			seq++
		}
		<-ackDone // every submission is in queue; nothing appends until the next batch
		gw.NotifyCommitted(seq, queue)
		queue = queue[:0]
		<-commitDone
	}
	for i := 0; i < 8; i++ {
		batch() // pending-table buckets and write buffers at their working size
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
	b.StopTimer()
	b.ReportMetric(txPathGatewayBatch, "txs/op")
}
