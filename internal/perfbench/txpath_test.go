package perfbench

import "testing"

// The transaction path's allocation counts, layer by layer (cmd/bench -exp
// micro gates their allocs/op): execution over existing keys, the block
// digest, the buffer pool and a read at zero, fresh keys and the gateway at
// a few per thousand transactions.
func BenchmarkTxPathApply(b *testing.B)      { TxPathApply(b) }
func BenchmarkTxPathApplyFresh(b *testing.B) { TxPathApplyFresh(b) }
func BenchmarkTxPathDigest(b *testing.B)     { TxPathDigest(b) }
func BenchmarkTxPathBufpool(b *testing.B)    { TxPathBufpool(b) }
func BenchmarkTxPathGateway(b *testing.B)    { TxPathGateway(b) }
func BenchmarkTxPathRead(b *testing.B)       { TxPathRead(b) }

// One round's VALs at n=7 in 1, 2 and n-1 mailbox drains: ECHO frames,
// signatures and verify jobs per drain count (cmd/bench -exp micro gates
// them exactly).
func BenchmarkEchoDrain(b *testing.B) { EchoDrain(b, 7) }
