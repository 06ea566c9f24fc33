package mempool

import (
	"sync"
	"testing"
	"unsafe"

	"clanbft/internal/types"
)

func TestGeneratorReal(t *testing.T) {
	g := NewGenerator(3, 100, 512, false)
	b1 := g.NextBlock(1)
	if b1.TxCount() != 100 || b1.PayloadBytes() != 100*512 {
		t.Fatalf("count=%d bytes=%d", b1.TxCount(), b1.PayloadBytes())
	}
	if b1.IsSynthetic() {
		t.Fatal("real generator produced synthetic block")
	}
	b2 := g.NextBlock(2)
	if b1.Digest() == b2.Digest() {
		t.Fatal("consecutive blocks identical")
	}
	// Transactions are distinct within a block.
	seen := map[string]bool{}
	for _, tx := range b1.Txs {
		if seen[string(tx)] {
			t.Fatal("duplicate tx in block")
		}
		seen[string(tx)] = true
		if len(tx) != 512 {
			t.Fatalf("tx size %d", len(tx))
		}
	}
}

func TestGeneratorSynthetic(t *testing.T) {
	g := NewGenerator(1, 6000, 512, true)
	b := g.NextBlock(5)
	if !b.IsSynthetic() || b.TxCount() != 6000 || b.PayloadBytes() != 6000*512 {
		t.Fatalf("bad synthetic block: %+v", b)
	}
	if len(b.Txs) != 0 {
		t.Fatal("synthetic block materialized payload")
	}
	b2 := g.NextBlock(6)
	if b.Digest() == b2.Digest() {
		t.Fatal("synthetic blocks identical across rounds")
	}
	// Different generators produce different payload identities.
	h := NewGenerator(2, 6000, 512, true)
	if h.NextBlock(5).Digest() == NewGenerator(1, 6000, 512, true).NextBlock(5).Digest() {
		t.Fatal("seeding does not separate proposers")
	}
}

func TestGeneratorZeroLoad(t *testing.T) {
	g := NewGenerator(1, 0, 512, false)
	if g.NextBlock(1) != nil {
		t.Fatal("zero-load generator produced a block")
	}
}

func TestPoolDrain(t *testing.T) {
	p := NewPool(3)
	if p.NextBlock(1) != nil {
		t.Fatal("empty pool produced a block")
	}
	for i := 0; i < 7; i++ {
		p.Submit([]byte{byte(i)})
	}
	if p.Depth() != 7 || p.Submitted() != 7 {
		t.Fatalf("depth=%d submitted=%d", p.Depth(), p.Submitted())
	}
	var got []byte
	for r := types.Round(0); ; r++ {
		b := p.NextBlock(r)
		if b == nil {
			break
		}
		if len(b.Txs) > 3 {
			t.Fatalf("block exceeded max: %d", len(b.Txs))
		}
		for _, tx := range b.Txs {
			got = append(got, tx[0])
		}
	}
	if len(got) != 7 {
		t.Fatalf("drained %d", len(got))
	}
	for i, v := range got {
		if int(v) != i {
			t.Fatal("FIFO order broken")
		}
	}
}

// TestPoolDepthConcurrent races submitters against a drainer while a third
// set of goroutines continuously reads Depth, asserting the published depth
// is always consistent with what was actually submitted and drained: never
// negative, never above the outstanding count at any linearization point.
// Run under -race this pins the depth-accounting contract the gateway's
// admission control depends on (backpressure must trigger on the true depth,
// not a stale snapshot).
func TestPoolDepthConcurrent(t *testing.T) {
	p := NewPool(7)
	const (
		submitters   = 4
		perSubmitter = 2000
		total        = submitters * perSubmitter
	)
	stop := make(chan struct{})
	var watchers sync.WaitGroup

	// Depth watchers: the invariant 0 <= depth <= total must hold at every
	// instant, concurrently with submits and drains.
	for w := 0; w < 2; w++ {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d := p.Depth(); d < 0 || d > total {
					t.Errorf("depth %d out of range", d)
					return
				}
			}
		}()
	}

	var work sync.WaitGroup
	work.Add(1)
	go func() {
		defer work.Done()
		drained := 0
		for drained < total {
			if b := p.NextBlock(0); b != nil {
				drained += len(b.Txs)
			}
		}
	}()
	for g := 0; g < submitters; g++ {
		work.Add(1)
		go func() {
			defer work.Done()
			for i := 0; i < perSubmitter; i++ {
				p.Submit([]byte{1})
			}
		}()
	}
	work.Wait()
	close(stop)
	watchers.Wait()
	if p.Depth() != 0 {
		t.Fatalf("final depth %d, want 0", p.Depth())
	}
	if p.Submitted() != total {
		t.Fatalf("submitted %d, want %d", p.Submitted(), total)
	}
}

// TestPoolReleasesDrainedPrefix checks that a fully drained pool does not
// keep a burst-sized backing array (and every drained transaction in it)
// pinned: slots are zeroed as they drain and the burst's array is dropped.
func TestPoolReleasesDrainedPrefix(t *testing.T) {
	p := NewPool(64)
	for i := 0; i < 5000; i++ {
		p.Submit(make([]byte, 64))
	}
	for p.NextBlock(0) != nil {
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.queue.Len() != 0 || p.queue.Cap() != 0 {
		t.Fatalf("drained pool holds len %d, cap %d", p.queue.Len(), p.queue.Cap())
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool(100)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				p.Submit([]byte{1})
			}
		}()
	}
	wg.Wait()
	total := 0
	for {
		b := p.NextBlock(0)
		if b == nil {
			break
		}
		total += len(b.Txs)
	}
	if total != 1000 {
		t.Fatalf("drained %d, want 1000", total)
	}
}

// TestSubmitAllocs: admission costs only its chunks — 1 000 submits of 128 B
// fill four 32 KiB chunks — and a transaction too large to share one (over
// half a chunk) costs exactly its own array.
func TestSubmitAllocs(t *testing.T) {
	p := NewPool(0)
	tx := make([]byte, 128)
	for i := 0; i < 1000; i++ { // the queue's growth is not admission's
		p.queue.Push(nil)
	}
	small := testing.AllocsPerRun(3, func() {
		p.queue.Drop(p.queue.Len())
		p.blocks = types.BlockSlab{}
		for i := 0; i < 1000; i++ {
			p.Submit(tx)
		}
	})
	t.Logf("1000 submits of 128 B: %.0f allocations", small)
	if small > 5 {
		t.Fatalf("1000 submits of 128 B allocate %.0f, want <= 5 (their chunks)", small)
	}
	big := make([]byte, types.TxChunkSize/2+1)
	large := testing.AllocsPerRun(20, func() {
		p.queue.Drop(p.queue.Len())
		p.Submit(big)
	})
	if large != 1 {
		t.Fatalf("a submit of over half a chunk allocates %.0f, want 1", large)
	}
}

// TestSubmitCopies: the pool keeps its own copy, so a caller reusing its
// buffer after Submit changes neither the queued nor the proposed bytes; and
// neighbours in one chunk are capacity-capped, so an append to one
// transaction cannot overwrite the next.
func TestSubmitCopies(t *testing.T) {
	p := NewPool(0)
	buf := []byte("first")
	p.Submit(buf)
	copy(buf, "secnd")
	p.Submit(buf)
	copy(buf, "XXXXX")
	p.mu.Lock()
	queued := []string{string(p.queue.Front(2)[0]), string(p.queue.Front(2)[1])}
	p.mu.Unlock()
	if queued[0] != "first" || queued[1] != "secnd" {
		t.Fatalf("queued %q after the caller reused its buffer", queued)
	}
	b := p.NextBlock(0)
	if len(b.Txs) != 2 || string(b.Txs[0]) != "first" || string(b.Txs[1]) != "secnd" {
		t.Fatalf("proposed %q, want [first secnd]", b.Txs)
	}
	if unsafe.Add(unsafe.Pointer(&b.Txs[0][0]), len(b.Txs[0])) != unsafe.Pointer(&b.Txs[1][0]) {
		t.Fatal("two small transactions are not neighbours in one chunk")
	}
	if cap(b.Txs[0]) != len(b.Txs[0]) {
		t.Fatalf("first transaction has capacity %d beyond its %d bytes", cap(b.Txs[0]), len(b.Txs[0]))
	}
	grown := append(b.Txs[0], "-appended"...)
	if string(b.Txs[1]) != "secnd" || string(grown) != "first-appended" {
		t.Fatalf("append to the first transaction left its neighbour %q", b.Txs[1])
	}
	big := make([]byte, types.TxChunkSize/2+1)
	p.Submit(big)
	big[0] = 1
	if b := p.NextBlock(1); len(b.Txs) != 1 || b.Txs[0][0] != 0 {
		t.Fatal("a large transaction aliases the caller's buffer")
	}
}
