package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"testing"
	"testing/quick"

	"clanbft/internal/types"
)

func TestKeygenDeterministic(t *testing.T) {
	a := GenerateKeys(5, 42)
	b := GenerateKeys(5, 42)
	for i := range a {
		if !a[i].Pub.Equal(b[i].Pub) || a[i].TagKey != b[i].TagKey {
			t.Fatalf("key %d differs across identical seeds", i)
		}
	}
	c := GenerateKeys(5, 43)
	if a[0].Pub.Equal(c[0].Pub) {
		t.Fatal("different seeds produced identical keys")
	}
}

func TestSignVerify(t *testing.T) {
	keys := GenerateKeys(4, 1)
	reg := NewRegistry(keys, true)
	msg := []byte("hello world")
	sig := Sign(&keys[2], msg)
	if !reg.Verify(2, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if reg.Verify(1, msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
	msg2 := []byte("hello worle")
	if reg.Verify(2, msg2, sig) {
		t.Fatal("signature verified over wrong message")
	}
	var bad types.SigBytes
	copy(bad[:], sig[:])
	bad[0] ^= 1
	if reg.Verify(2, msg, bad) {
		t.Fatal("corrupted signature accepted")
	}
	if reg.Verify(200, msg, sig) {
		t.Fatal("out-of-range signer accepted")
	}
}

func TestCheckSigsOff(t *testing.T) {
	keys := GenerateKeys(2, 1)
	reg := NewRegistry(keys, false)
	var junk types.SigBytes
	if !reg.Verify(0, []byte("x"), junk) {
		t.Fatal("CheckSigs=false must accept")
	}
	if !reg.VerifyAgg([]byte("x"), types.AggSig{Bitmap: []byte{3}}) {
		t.Fatal("CheckSigs=false must accept aggregates")
	}
}

func TestAggregateRoundTrip(t *testing.T) {
	keys := GenerateKeys(10, 7)
	reg := NewRegistry(keys, true)
	msg := []byte("certify me")

	agg := NewAggregator(10)
	signers := []types.NodeID{0, 3, 4, 7, 9}
	for _, id := range signers {
		if err := agg.Add(id, PartialTag(&keys[id], msg)); err != nil {
			t.Fatal(err)
		}
	}
	if agg.Count() != len(signers) {
		t.Fatalf("count = %d", agg.Count())
	}
	sig := agg.Sig()
	if !reg.VerifyAgg(msg, sig) {
		t.Fatal("valid aggregate rejected")
	}
	got := types.BitmapMembers(sig.Bitmap)
	for i, id := range signers {
		if got[i] != id {
			t.Fatalf("bitmap members %v != %v", got, signers)
		}
	}
	// Wrong message fails.
	if reg.VerifyAgg([]byte("other"), sig) {
		t.Fatal("aggregate verified over wrong message")
	}
	// Tampered tag fails.
	bad := sig.Clone()
	bad.Tag[5] ^= 1
	if reg.VerifyAgg(msg, bad) {
		t.Fatal("tampered aggregate accepted")
	}
	// Claiming an extra signer fails.
	bad2 := sig.Clone()
	types.BitmapSet(bad2.Bitmap, 1)
	if reg.VerifyAgg(msg, bad2) {
		t.Fatal("aggregate with forged bitmap accepted")
	}
}

func TestAggregateOrderIndependence(t *testing.T) {
	keys := GenerateKeys(8, 3)
	msg := []byte("m")
	a1 := NewAggregator(8)
	a2 := NewAggregator(8)
	order1 := []types.NodeID{1, 5, 2}
	order2 := []types.NodeID{2, 1, 5}
	for _, id := range order1 {
		a1.Add(id, PartialTag(&keys[id], msg))
	}
	for _, id := range order2 {
		a2.Add(id, PartialTag(&keys[id], msg))
	}
	s1, s2 := a1.Sig(), a2.Sig()
	if s1.Tag != s2.Tag {
		t.Fatal("aggregation not commutative")
	}
}

func TestAggregateDuplicateRejected(t *testing.T) {
	keys := GenerateKeys(4, 3)
	msg := []byte("m")
	a := NewAggregator(4)
	if err := a.Add(1, PartialTag(&keys[1], msg)); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(1, PartialTag(&keys[1], msg)); err == nil {
		t.Fatal("duplicate partial accepted")
	}
	if a.Count() != 1 {
		t.Fatalf("count = %d after duplicate", a.Count())
	}
}

// TestAggregateProperty checks that any subset of signers verifies and any
// proper-subset bitmap forgery fails.
func TestAggregateProperty(t *testing.T) {
	keys := GenerateKeys(16, 11)
	reg := NewRegistry(keys, true)
	f := func(mask uint16, msgByte byte) bool {
		msg := []byte{msgByte, 0xAB}
		agg := NewAggregator(16)
		any := false
		for id := 0; id < 16; id++ {
			if mask&(1<<id) != 0 {
				agg.Add(types.NodeID(id), PartialTag(&keys[id], msg))
				any = true
			}
		}
		sig := agg.Sig()
		if !reg.VerifyAgg(msg, sig) {
			return false
		}
		if any {
			// Dropping one claimed signer without unfolding must fail.
			bad := sig.Clone()
			m := types.BitmapMembers(bad.Bitmap)
			bad.Bitmap[m[0]/8] &^= 1 << (m[0] % 8)
			if reg.VerifyAgg(msg, bad) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialForMatchesKeyHolder(t *testing.T) {
	keys := GenerateKeys(3, 5)
	reg := NewRegistry(keys, true)
	msg := []byte("vote")
	if PartialTag(&keys[2], msg) != reg.PartialFor(2, msg) {
		t.Fatal("registry partial differs from key-holder partial")
	}
}

func TestCosts(t *testing.T) {
	c := DefaultCosts()
	if c.AggVerify <= c.EdVerify {
		t.Fatal("aggregate verify should dominate single verify (pairing cost)")
	}
	if c.HashCost(3*1024*1024) <= c.HashCost(32) {
		t.Fatal("hash cost must grow with payload")
	}
	z := ZeroCosts()
	if z.HashCost(1<<20) != 0 {
		t.Fatal("zero costs must be zero")
	}
}

func TestParallelCosts(t *testing.T) {
	c := DefaultCosts()
	p := c.Parallel(16)
	if p.EdVerify != c.EdVerify/16 || p.AggVerify != c.AggVerify/16 {
		t.Fatal("verification not scaled")
	}
	if p.EdSign != c.EdSign || p.AggFold != c.AggFold {
		t.Fatal("single-threaded costs must not scale")
	}
	if c.Parallel(1) != c || c.Parallel(0) != c {
		t.Fatal("degenerate core counts must be identity")
	}
}

func TestSignForSkipsWhenUnchecked(t *testing.T) {
	keys := GenerateKeys(2, 4)
	off := NewRegistry(keys, false)
	on := NewRegistry(keys, true)
	msg := []byte("m")
	if off.SignFor(&keys[0], msg) != (types.SigBytes{}) {
		t.Fatal("unchecked registry must produce zero signatures")
	}
	sig := on.SignFor(&keys[0], msg)
	if sig == (types.SigBytes{}) || !on.Verify(0, msg, sig) {
		t.Fatal("checked registry must produce real signatures")
	}
	if off.PartialFor(0, msg) != ([32]byte{}) {
		t.Fatal("unchecked partials must be zero")
	}
}

// TestPartialMatchesHMAC pins the hand-rolled short-message path of partial
// to crypto/hmac on both sides of its length cut-off, and its zero-allocation
// promise for a context-sized message built on the caller's stack.
func TestPartialMatchesHMAC(t *testing.T) {
	keys := GenerateKeys(1, 5)
	msg := make([]byte, 200)
	for i := range msg {
		msg[i] = byte(i*31 + 7)
	}
	for n := 0; n <= len(msg); n++ {
		mac := hmac.New(sha256.New, keys[0].TagKey[:])
		mac.Write(msg[:n])
		if got := PartialTag(&keys[0], msg[:n]); !bytes.Equal(got[:], mac.Sum(nil)) {
			t.Fatalf("partial over %d bytes differs from HMAC-SHA256", n)
		}
	}
	reg := NewRegistry(keys, true)
	if a := testing.AllocsPerRun(100, func() {
		var ctx [51]byte
		ctx[0] = 'E'
		_ = reg.PartialFor(0, ctx[:])
	}); a != 0 {
		t.Fatalf("PartialFor allocates %v times per call, want 0", a)
	}
}
