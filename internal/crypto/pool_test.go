package crypto

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestVerifyPoolRunsAllJobs(t *testing.T) {
	p := NewVerifyPool(4, 8)
	var ran atomic.Int64
	const jobs = 10_000
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobs/8; i++ {
				p.Submit(func() { ran.Add(1) })
			}
		}()
	}
	wg.Wait()
	p.Close()
	if got := ran.Load(); got != jobs {
		t.Fatalf("ran %d of %d jobs", got, jobs)
	}
}

func TestVerifyPoolSubmitAfterCloseRunsInline(t *testing.T) {
	p := NewVerifyPool(2, 2)
	p.Close()
	ran := false
	p.Submit(func() { ran = true })
	if !ran {
		t.Fatal("job on closed pool did not run inline")
	}
	p.Close() // idempotent
}

func TestVerifyPoolParallelVerification(t *testing.T) {
	// Real signatures verified through the pool, with results delivered
	// through per-job gates — the exact shape the transport layer uses.
	keys := GenerateKeys(8, 42)
	reg := NewRegistry(keys, true)
	msg := []byte("the payload being signed")
	sigs := make([]struct {
		id  int
		sig [64]byte
	}, 256)
	for i := range sigs {
		sigs[i].id = i % len(keys)
		sigs[i].sig = Sign(&keys[sigs[i].id], msg)
	}
	p := NewVerifyPool(0, 0)
	defer p.Close()
	gates := make([]chan bool, len(sigs))
	for i := range sigs {
		i := i
		gates[i] = make(chan bool, 1)
		p.Submit(func() {
			gates[i] <- reg.Verify(keys[sigs[i].id].ID, msg, sigs[i].sig)
		})
	}
	for i, g := range gates {
		if !<-g {
			t.Fatalf("signature %d rejected", i)
		}
	}
	// A corrupted signature must still be rejected on the pool path.
	bad := Sign(&keys[0], msg)
	bad[0] ^= 0xff
	verdict := make(chan bool, 1)
	p.Submit(func() { verdict <- reg.Verify(keys[0].ID, msg, bad) })
	if <-verdict {
		t.Fatal("corrupted signature accepted")
	}
}
