package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clanbft/internal/crypto"
	"clanbft/internal/types"
)

// voteVerifier returns a Verifier that checks a one-entry EchoMsg's Ed25519
// signature over its digest and marks it, mirroring what core.Node.Verifier does.
func voteVerifier(reg *crypto.Registry) Verifier {
	return func(from types.NodeID, m types.Message) bool {
		vm, ok := m.(*types.EchoMsg)
		if !ok {
			return true
		}
		if !reg.Verify(vm.Voter, vm.Entries[0].Digest[:], vm.Sig) {
			return false
		}
		vm.MarkVerified()
		return true
	}
}

func signedVote(keys []crypto.KeyPair, voter, seq int) *types.EchoMsg {
	var digest types.Hash
	for i := range digest {
		digest[i] = byte(i * 7)
	}
	return &types.EchoMsg{
		Entries: []types.EchoEntry{{Pos: types.Position{Round: types.Round(seq), Source: 0}, Digest: digest}},
		Voter:   types.NodeID(voter),
		Sig:     crypto.Sign(&keys[voter], digest[:]),
	}
}

// TestVerifyPipelineFiltersAndPreservesOrder checks the three contract points
// of the pre-verification stage: bad signatures are dropped before the
// handler, survivors arrive carrying the verified mark, and per-sender FIFO
// order is unchanged even though verification runs on pool workers.
func TestVerifyPipelineFiltersAndPreservesOrder(t *testing.T) {
	keys := crypto.GenerateKeys(8, 1)
	reg := crypto.NewRegistry(keys, true)
	net := NewChanNet(2, 0)
	defer net.Close()
	pool := crypto.NewVerifyPool(0, 0)
	defer pool.Close()

	var mu sync.Mutex
	var got []types.Round
	unmarked := 0
	net.Endpoint(1).SetHandler(func(from types.NodeID, m types.Message) {
		vm := m.(*types.EchoMsg)
		mu.Lock()
		got = append(got, vm.Entries[0].Pos.Round)
		if !vm.PreVerified() {
			unmarked++
		}
		mu.Unlock()
	})
	net.Endpoint(1).(VerifyingEndpoint).SetVerifier(voteVerifier(reg), pool)

	const total = 200
	var want []types.Round
	for i := 0; i < total; i++ {
		m := signedVote(keys, i%len(keys), i)
		if i%5 == 4 {
			m.Sig[3] ^= 0xff // corrupt: must be dropped
		} else {
			want = append(want, m.Entries[0].Pos.Round)
		}
		net.Endpoint(0).Send(1, m)
	}

	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) >= len(want) })
	time.Sleep(20 * time.Millisecond) // let any stray (wrong) delivery land
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("delivered %d messages, want %d", len(got), len(want))
	}
	if unmarked != 0 {
		t.Fatalf("%d delivered messages missing the verified mark", unmarked)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order violated at %d: got round %d, want %d", i, got[i], want[i])
		}
	}
	st := net.Endpoint(1).Stats()
	if st.VerifyQueued != total {
		t.Fatalf("VerifyQueued = %d, want %d", st.VerifyQueued, total)
	}
	if st.VerifyRejected != total/5 {
		t.Fatalf("VerifyRejected = %d, want %d", st.VerifyRejected, total/5)
	}
}

// TestVerifyPipelineConcurrentSubmission hammers one receiver's verify stage
// from many senders at once (run under -race in CI): concurrent pool
// submission, concurrent marking, and the serialized handler must coexist.
func TestVerifyPipelineConcurrentSubmission(t *testing.T) {
	const senders = 4
	const perSender = 200
	keys := crypto.GenerateKeys(senders+1, 2)
	reg := crypto.NewRegistry(keys, true)
	net := NewChanNet(senders+1, 0)
	defer net.Close()
	pool := crypto.NewVerifyPool(0, 0)
	defer pool.Close()

	var delivered atomic.Int64
	var inHandler atomic.Int32
	var overlap atomic.Int32
	rx := net.Endpoint(senders)
	rx.SetHandler(func(from types.NodeID, m types.Message) {
		if inHandler.Add(1) != 1 {
			overlap.Add(1)
		}
		if !m.(*types.EchoMsg).PreVerified() {
			t.Error("handler saw an unverified message")
		}
		inHandler.Add(-1)
		delivered.Add(1)
	})
	rx.(VerifyingEndpoint).SetVerifier(voteVerifier(reg), pool)

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				net.Endpoint(types.NodeID(s)).Send(types.NodeID(senders), signedVote(keys, s, i))
			}
		}(s)
	}
	// Poll Stats concurrently with traffic to catch counter races.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = rx.Stats()
				_ = pool.Stats()
			}
		}
	}()
	wg.Wait()
	waitFor(t, func() bool { return delivered.Load() == senders*perSender })
	close(stop)
	if overlap.Load() != 0 {
		t.Fatalf("%d concurrent handler invocations", overlap.Load())
	}
}

// TestTCPVerifyPipeline runs the verify stage over real sockets: the read
// loop dispatches through the pool and bad signatures never reach the
// handler.
func TestTCPVerifyPipeline(t *testing.T) {
	keys := crypto.GenerateKeys(4, 3)
	reg := crypto.NewRegistry(keys, true)
	a, err := NewTCPEndpoint(0, map[types.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPEndpoint(1, map[types.NodeID]string{1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[types.NodeID]string{0: a.Addr(), 1: b.Addr()}
	a.addrs, b.addrs = addrs, addrs
	defer a.Close()
	defer b.Close()
	pool := crypto.NewVerifyPool(0, 0)
	defer pool.Close()

	var good, bad atomic.Int64
	a.SetHandler(func(types.NodeID, types.Message) {})
	b.SetHandler(func(from types.NodeID, m types.Message) {
		if m.(*types.EchoMsg).PreVerified() {
			good.Add(1)
		} else {
			bad.Add(1)
		}
	})
	b.SetVerifier(voteVerifier(reg), pool)

	const goodN, badN = 100, 25
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < goodN/4; i++ {
				a.Send(1, signedVote(keys, w, i))
			}
			for i := 0; i < badN; i++ {
				m := signedVote(keys, w, i)
				m.Sig[0] ^= 0xff
				a.Send(1, m)
			}
		}(w)
	}
	wg.Wait()
	// Wait until every message (good and bad) has a verdict: trailing bad
	// messages may still be in flight after the last good one is handled.
	waitFor(t, func() bool {
		return good.Load() == goodN && b.Stats().VerifyRejected == 4*badN
	})
	time.Sleep(20 * time.Millisecond)
	if bad.Load() != 0 {
		t.Fatalf("%d unverified messages reached the handler", bad.Load())
	}
	if g := good.Load(); g != goodN {
		t.Fatalf("delivered %d good messages, want %d", g, goodN)
	}
}

// benchVerifyPath measures handler-path throughput with real Ed25519
// verification of votes from 40 distinct signers — serially inline on the
// handler goroutine, or pre-verified on the pool (the mode the issue's
// acceptance criterion compares).
func benchVerifyPath(b *testing.B, pooled bool) {
	const signers = 40
	keys := crypto.GenerateKeys(signers, 7)
	reg := crypto.NewRegistry(keys, true)
	var digest types.Hash
	for i := range digest {
		digest[i] = byte(i * 3)
	}
	sigs := make([]types.SigBytes, signers)
	for i := range sigs {
		sigs[i] = crypto.Sign(&keys[i], digest[:])
	}
	msgs := make([]*types.EchoMsg, b.N)
	for i := range msgs {
		v := i % signers
		msgs[i] = &types.EchoMsg{Entries: []types.EchoEntry{{Digest: digest}}, Voter: types.NodeID(v), Sig: sigs[v]}
	}

	net := NewChanNet(2, 0)
	defer net.Close()
	var done atomic.Int64
	net.Endpoint(1).SetHandler(func(from types.NodeID, m types.Message) {
		vm := m.(*types.EchoMsg)
		if !vm.PreVerified() && !reg.Verify(vm.Voter, vm.Entries[0].Digest[:], vm.Sig) {
			b.Error("signature rejected")
		}
		done.Add(1)
	})
	if pooled {
		pool := crypto.NewVerifyPool(0, 0)
		defer pool.Close()
		net.Endpoint(1).(VerifyingEndpoint).SetVerifier(voteVerifier(reg), pool)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Endpoint(0).Send(1, msgs[i])
	}
	for int(done.Load()) < b.N {
		time.Sleep(10 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

func BenchmarkVerifySerialInline(b *testing.B) { benchVerifyPath(b, false) }
func BenchmarkVerifyPooled(b *testing.B)       { benchVerifyPath(b, true) }

// TestVerifyStageSkipsSelfSendsAndUnsignedKinds: what a node sends to itself,
// and the kinds that carry no verify mark (pulls, snapshots), reach the
// handler in order without ever being queued on the verify pool; a signed
// message from a peer still is.
func TestVerifyStageSkipsSelfSendsAndUnsignedKinds(t *testing.T) {
	keys := crypto.GenerateKeys(2, 4)
	reg := crypto.NewRegistry(keys, true)
	net := NewChanNet(2, 0)
	defer net.Close()
	pool := crypto.NewVerifyPool(0, 0)
	defer pool.Close()

	var mu sync.Mutex
	var kinds []types.MsgKind
	var marked int
	rx := net.Endpoint(1)
	rx.SetHandler(func(from types.NodeID, m types.Message) {
		mu.Lock()
		kinds = append(kinds, m.Kind())
		if pv, ok := m.(types.PreVerifiable); ok && pv.PreVerified() {
			marked++
		}
		mu.Unlock()
	})
	rx.(VerifyingEndpoint).SetVerifier(voteVerifier(reg), pool)

	forged := signedVote(keys, 1, 1)
	forged.Sig[0] ^= 0xff // a self-send is trusted, not checked
	rx.Send(1, forged)
	rx.Broadcast(signedVote(keys, 1, 2))
	net.Endpoint(0).Send(1, &types.VtxReqMsg{Pos: types.Position{Round: 3}})
	net.Endpoint(0).Send(1, &types.BlockReqMsg{Pos: types.Position{Round: 3}})
	net.Endpoint(0).Send(1, &types.SnapReqMsg{})
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(kinds) == 5 })
	if st := rx.Stats(); st.VerifyQueued != 0 {
		t.Fatalf("VerifyQueued = %d after self-sends and pull kinds, want 0", st.VerifyQueued)
	}
	net.Endpoint(0).Send(1, signedVote(keys, 0, 3))
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(kinds) == 6 })
	mu.Lock()
	defer mu.Unlock()
	want := []types.MsgKind{types.KindEcho, types.KindEcho, types.KindVtxReq, types.KindBlockReq, types.KindSnapReq, types.KindEcho}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("handler saw kinds %v, want %v", kinds, want)
		}
	}
	if st := rx.Stats(); st.VerifyQueued != 1 || marked != 1 {
		t.Fatalf("VerifyQueued = %d, marked = %d after one signed message from a peer, want 1 and 1", st.VerifyQueued, marked)
	}
}
