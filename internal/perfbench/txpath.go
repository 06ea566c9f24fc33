package perfbench

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"clanbft/internal/core"
	"clanbft/internal/execution"
	"clanbft/internal/gateway"
	"clanbft/internal/mempool"
	"clanbft/internal/types"
)

// The TxPath rows count what the steady-state transaction path allocates,
// layer by layer. Their gated figures are allocs/op and bytes/op: counts that
// repeat exactly on any machine.

// txPathBlock is n SET transactions over keys base..base+n-1 with size-byte
// values.
func txPathBlock(base, n, size int, fill byte) *types.Block {
	blk := &types.Block{Round: 1, Source: 1}
	val := make([]byte, size)
	for i := range val {
		val[i] = fill
	}
	for i := 0; i < n; i++ {
		blk.Txs = append(blk.Txs, execution.EncodeTx(execution.Tx{
			Op: execution.OpSet, Key: []byte(fmt.Sprintf("w%08x", base+i)), Value: val}))
	}
	return blk
}

// TxPathApply executes one 1 000-write block per op over keys that already
// hold same-size values — the steady state of a write workload. Decoding,
// the state update, the result and the root fold allocate nothing.
func TxPathApply(b *testing.B) {
	ex := execution.NewExecutor(0, nil)
	ex.Apply(core.CommittedVertex{Block: txPathBlock(0, 1000, 128, 1)})
	cv := core.CommittedVertex{Block: txPathBlock(0, 1000, 128, 2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Apply(cv)
	}
}

// txPathFreshBlocks is how many 1 000-key blocks one TxPathApplyFresh
// executor takes before the next starts empty, which bounds the state the
// row builds.
const txPathFreshBlocks = 32

// TxPathApplyFresh executes one 1 000-write block per op over keys the
// executor has never seen, with 128-byte values — the state's growth. Keys
// and values are carved from the state's shared chunks and entries from its
// slabs, so what an op allocates is its share of chunks, slabs and map
// growth, none of it any one key's own. Replacing the full executor is not
// counted.
func TxPathApplyFresh(b *testing.B) {
	blocks := make([]core.CommittedVertex, txPathFreshBlocks)
	for i := range blocks {
		blocks[i] = core.CommittedVertex{Block: txPathBlock(i*1000, 1000, 128, 1)}
	}
	var ex *execution.Executor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%txPathFreshBlocks == 0 {
			b.StopTimer()
			ex = execution.NewExecutor(0, nil)
			b.StartTimer()
		}
		ex.Apply(blocks[i%txPathFreshBlocks])
	}
}

// TxPathDigest hashes one 1 000-transaction block per op: streamed through a
// pooled hasher, never marshalled.
func TxPathDigest(b *testing.B) {
	blk := txPathBlock(0, 1000, 128, 1)
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
// batch and the COMMIT frames back. Admission hands each payload to a real
// mempool, which copies it into a shared 32 KiB chunk, so no allocation is
// any one transaction's own: what remains per op is the batch's chunks and
// the drained block.
func TxPathGateway(b *testing.B) {
	pool := mempool.NewPool(math.MaxInt)
	gw, err := gateway.New(gateway.Config{
		Addr:   "127.0.0.1:0",
		Submit: pool.Submit,
		Depth:  pool.Depth,
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
		<-ackDone // every submission is in the pool; nothing submits until the next batch
		gw.NotifyCommitted(seq, pool.NextBlock(0).Txs)
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

// TxPathRead is one READ → VALUE round trip per op over real sockets with
// consensus stubbed out: the gateway polls three executors holding the key's
// 2 KiB value, each appending it into the read's recycled buffers, compares
// the answers and frames the VALUE, and the client copies it into a shared
// 32 KiB chunk. What an op allocates is its sixteenth of that chunk. The
// quorum is all three, so a read's operation is idle again once its VALUE
// is out: with two, the third poll of back-to-back reads can wait behind
// them on a busy box until the connection's reads are all out and it sheds.
func TxPathRead(b *testing.B) {
	key := []byte("k")
	set := core.CommittedVertex{Block: &types.Block{Round: 1, Source: 1, Txs: [][]byte{execution.EncodeTx(
		execution.Tx{Op: execution.OpSet, Key: key, Value: make([]byte, 2048)})}}}
	var responders []gateway.StateReader
	for i := 0; i < 3; i++ {
		ex := execution.NewExecutor(types.NodeID(i), nil)
		ex.Apply(set)
		responders = append(responders, gateway.StateReaderFunc(ex.GetVersioned))
	}
	pool := mempool.NewPool(math.MaxInt)
	gw, err := gateway.New(gateway.Config{
		Addr:   "127.0.0.1:0",
		Submit: pool.Submit,
		Depth:  pool.Depth,
		Limits: gateway.Limits{ClientRate: 1e9},
		Read:   gateway.ReadConfig{Responders: responders, FaultBound: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	var wrong atomic.Int64
	answered := make(chan struct{}, 1)
	cl, err := gateway.Dial(gw.Addr(), func(ev gateway.ServerEvent) {
		switch ev.Kind {
		case gateway.MsgValue, gateway.MsgReadErr:
			if ev.Kind != gateway.MsgValue || len(ev.Value) != 2048 {
				wrong.Add(1)
			}
			answered <- struct{}{}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	read := func(seq uint64) {
		if err := cl.Read(seq%64, seq, key); err != nil {
			b.Fatal(err)
		}
		<-answered
	}
	for i := 0; i < 100; i++ {
		read(uint64(i)) // the operation, buckets and write buffer made
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(uint64(i))
	}
	b.StopTimer()
	if n := wrong.Load(); n > 0 {
		b.Fatalf("%d reads answered without the 2 KiB value", n)
	}
}
