package transport_test

import (
	"fmt"
	"testing"

	"clanbft/internal/perfbench"
)

// BenchmarkMulticastEncodeOnce gates the encode-once transport: allocs/op
// must be independent of the peer count (one marshal per multicast, the same
// frame bytes on every connection). Run with -benchmem and compare the
// peers=4 and peers=40 sub-benchmarks.
func BenchmarkMulticastEncodeOnce(b *testing.B) {
	for _, peers := range []int{4, 40} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			perfbench.MulticastEncodeOnce(b, peers, 1<<20)
		})
	}
}

// BenchmarkRxDecode measures the receive path's decode: the echo
// arena amortizes allocations across a batch of votes
// (TestRxDecodeAllocs in internal/types gates the count).
func BenchmarkRxDecode(b *testing.B) {
	perfbench.RxDecodeZeroCopy(b, true)
}

// BenchmarkSmallMsgCoalesce measures sender-side coalescing: flushes/msg
// (writev syscalls per vote-sized message) sits well below one syscall per
// frame.
func BenchmarkSmallMsgCoalesce(b *testing.B) {
	perfbench.SmallMsgCoalesce(b, true)
}
