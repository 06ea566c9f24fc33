package committee

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"clanbft/internal/types"
)

// TestIntroClanSizeExample checks the paper's introduction example: n=500,
// f=166, a clan of 184 keeps an honest majority except with probability
// ~1e-9 (the paper reports "a negligible failure probability of 1e-9").
func TestIntroClanSizeExample(t *testing.T) {
	p := Float(DishonestMajorityProb(500, 166, 184))
	if p > 1.5e-9 || p < 1e-10 {
		t.Fatalf("n=500 f=166 nc=184: got %.3g, want ~1e-9", p)
	}
	// The exact Eq.-1 minimum is 183 (odd sizes dodge the tie penalty).
	if got := MinClanSize(500, 166, RatFromFloat(1e-9)); got != 183 {
		t.Fatalf("MinClanSize(500,166,1e-9) = %d, want 183", got)
	}
}

// TestPaperClanSizes checks the Section 7 setup: with failure probability
// 1e-6, clans of 32, 60, 80 for n = 50, 100, 150. The first two are the
// exact strict-convention minima; 80 is the paper's (valid) round-number
// choice above the minimum 76.
func TestPaperClanSizes(t *testing.T) {
	th := RatFromFloat(1e-6)
	cases := []struct{ n, wantMin, paperSize int }{
		{50, 32, 32},
		{100, 60, 60},
		{150, 76, 80},
	}
	for _, c := range cases {
		f := MaxFaulty(c.n)
		if got := MinClanSizeStrict(c.n, f, th); got != c.wantMin {
			t.Errorf("MinClanSizeStrict(n=%d) = %d, want %d", c.n, got, c.wantMin)
		}
		if p := DishonestStrictMajorityProb(c.n, f, c.paperSize); p.Cmp(th) > 0 {
			t.Errorf("paper clan size %d at n=%d violates threshold: p=%.3g",
				c.paperSize, c.n, Float(p))
		}
	}
}

// TestPaperMultiClanProbabilities checks Section 6.2's concrete numbers:
// two clans at n=150 fail with ~4.015e-6; three clans at n=387 with
// ~1.11e-6.
func TestPaperMultiClanProbabilities(t *testing.T) {
	p2 := Float(MultiClanFailureProb(150, MaxFaulty(150), EqualPartitionSizes(150, 2)))
	if p2 < 3.9e-6 || p2 > 4.1e-6 {
		t.Errorf("2 clans at n=150: got %.4g, want ~4.015e-6", p2)
	}
	p3 := Float(MultiClanFailureProb(387, MaxFaulty(387), EqualPartitionSizes(387, 3)))
	if p3 < 1.0e-6 || p3 > 1.2e-6 {
		t.Errorf("3 clans at n=387: got %.4g, want ~1.11e-6", p3)
	}
}

// TestFigure1Monotone spot-checks the Figure 1 curve: clan size grows
// sub-linearly with n and the returned size always satisfies the bound
// while size-1 does not (after accounting for parity dips the solver
// already handles).
func TestFigure1Curve(t *testing.T) {
	th := RatFromFloat(1e-9)
	prev := 0
	for n := 100; n <= 1000; n += 100 {
		f := MaxFaulty(n)
		nc := MinClanSize(n, f, th)
		if DishonestMajorityProb(n, f, nc).Cmp(th) > 0 {
			t.Fatalf("n=%d: returned size %d violates threshold", n, nc)
		}
		if nc < prev {
			t.Fatalf("n=%d: clan size %d shrank below %d", n, nc, prev)
		}
		if nc > n {
			t.Fatalf("n=%d: clan size %d exceeds tribe", n, nc)
		}
		// Sub-linear growth: the clan fraction must fall as n grows.
		if n >= 200 && float64(nc)/float64(n) >= float64(prev)/float64(n-100) {
			t.Errorf("n=%d: clan fraction did not shrink (%d/%d vs %d/%d)",
				n, nc, n, prev, n-100)
		}
		prev = nc
	}
}

// TestTwoClanMatchesClosedForm cross-checks the DP generalization against a
// direct implementation of the paper's Equation 4 for two clans.
func TestTwoClanMatchesClosedForm(t *testing.T) {
	for _, n := range []int{30, 60, 150} {
		f := MaxFaulty(n)
		nh := n - f
		sizes := EqualPartitionSizes(n, 2)
		nc := sizes[0]
		fc := ClanMaxFaulty(nc)
		// Equation 4: s = sum over w1 with w1<=fc and f-w1<=fc of
		// C(f,w1)*C(nh,nc-w1).
		s := new(big.Int)
		for w1 := 0; w1 <= fc && w1 <= f; w1++ {
			w2 := f - w1
			if w2 < 0 || w2 > ClanMaxFaulty(sizes[1]) {
				continue
			}
			if nc-w1 > nh {
				continue
			}
			term := new(big.Int).Mul(binom(f, w1), binom(nh, nc-w1))
			s.Add(s, term)
		}
		want := new(big.Rat).Sub(big.NewRat(1, 1), new(big.Rat).SetFrac(s, binom(n, nc)))
		got := MultiClanFailureProb(n, f, sizes)
		if got.Cmp(want) != 0 {
			t.Errorf("n=%d: DP %v != closed form %v", n, got, want)
		}
	}
}

// TestHypergeomProperties property-tests Equation 1's basic invariants.
func TestHypergeomProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	prop := func(a, b, c uint8) bool {
		n := int(a%200) + 10
		f := int(b) % (n/3 + 1)
		nc := int(c)%(n-1) + 1
		p := DishonestMajorityProb(n, f, nc)
		// A probability.
		if p.Sign() < 0 || p.Cmp(big.NewRat(1, 1)) > 0 {
			return false
		}
		// Strict variant never exceeds the tie-counting variant.
		ps := DishonestStrictMajorityProb(n, f, nc)
		if ps.Cmp(p) > 0 {
			return false
		}
		// No Byzantine parties -> zero failure probability.
		if f == 0 && p.Sign() != 0 {
			return false
		}
		// More Byzantine parties cannot reduce the failure probability.
		if f+1 <= n {
			p2 := DishonestMajorityProb(n, f+1, nc)
			if p2.Cmp(p) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMultiClanDegeneratesToSingle checks that partitioning into one clan of
// size nc < n matches Equation 1 with the same size.
func TestMultiClanDegeneratesToSingle(t *testing.T) {
	n, f, nc := 90, MaxFaulty(90), 45
	got := MultiClanFailureProb(n, f, []int{nc})
	want := DishonestMajorityProb(n, f, nc)
	if got.Cmp(want) != 0 {
		t.Fatalf("single-clan partition %v != hypergeometric %v", got, want)
	}
}

func TestSampleClan(t *testing.T) {
	members := SampleClanMembers(parties(100), 40, 42)
	if len(members) != 40 {
		t.Fatalf("got %d members", len(members))
	}
	seen := map[types.NodeID]bool{}
	for i, m := range members {
		if int(m) >= 100 {
			t.Fatalf("member %d out of range", m)
		}
		if seen[m] {
			t.Fatalf("duplicate member %d", m)
		}
		seen[m] = true
		if i > 0 && members[i-1] >= m {
			t.Fatalf("members not sorted")
		}
	}
	again := SampleClanMembers(parties(100), 40, 42)
	for i := range members {
		if members[i] != again[i] {
			t.Fatal("sampling not deterministic per seed")
		}
	}
	other := SampleClanMembers(parties(100), 40, 43)
	same := true
	for i := range members {
		if members[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical clans")
	}
}

func TestPartitionClans(t *testing.T) {
	clans := PartitionMembers(parties(151), 3, 9)
	if len(clans) != 3 {
		t.Fatalf("got %d clans", len(clans))
	}
	seen := map[types.NodeID]int{}
	total := 0
	for ci, c := range clans {
		total += len(c)
		for _, m := range c {
			if prev, dup := seen[m]; dup {
				t.Fatalf("party %d in clans %d and %d", m, prev, ci)
			}
			seen[m] = ci
		}
	}
	if total != 151 {
		t.Fatalf("partition covers %d of 151 parties", total)
	}
	sizes := EqualPartitionSizes(151, 3)
	for i, c := range clans {
		if len(c) != sizes[i] {
			t.Fatalf("clan %d size %d, want %d", i, len(c), sizes[i])
		}
	}
}

func TestEqualPartitionSizes(t *testing.T) {
	f := func(a, b uint8) bool {
		n := int(a) + 1
		q := int(b)%5 + 1
		if q > n {
			q = n
		}
		sizes := EqualPartitionSizes(n, q)
		sum, min, max := 0, n+1, 0
		for _, s := range sizes {
			sum += s
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		return sum == n && max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedClan(t *testing.T) {
	// 20 parties round-robin across 5 regions, clan of 10 -> exactly 2 per
	// region.
	regionOf := make([]int, 20)
	for i := range regionOf {
		regionOf[i] = i % 5
	}
	members := BalancedClan(regionOf, 10, 1)
	perRegion := map[int]int{}
	for _, m := range members {
		perRegion[regionOf[m]]++
	}
	for r := 0; r < 5; r++ {
		if perRegion[r] != 2 {
			t.Fatalf("region %d has %d clan members, want 2", r, perRegion[r])
		}
	}
}

func TestClanMaxFaulty(t *testing.T) {
	cases := map[int]int{1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 75: 37, 80: 39, 184: 91}
	for nc, want := range cases {
		if got := ClanMaxFaulty(nc); got != want {
			t.Errorf("ClanMaxFaulty(%d) = %d, want %d", nc, got, want)
		}
	}
	// Honest majority must survive fc faults: nc - fc > fc.
	for nc := 1; nc < 300; nc++ {
		fc := ClanMaxFaulty(nc)
		if nc-fc <= fc {
			t.Fatalf("nc=%d: fc=%d breaks honest majority", nc, fc)
		}
		if nc-(fc+1) > fc+1 {
			t.Fatalf("nc=%d: fc=%d not maximal", nc, fc)
		}
	}
}

func TestBalancedPartition(t *testing.T) {
	regionOf := make([]int, 30)
	for i := range regionOf {
		regionOf[i] = i % 5
	}
	clans := BalancedPartition(regionOf, 2, 3)
	if len(clans) != 2 {
		t.Fatalf("clans = %d", len(clans))
	}
	seen := map[types.NodeID]bool{}
	for ci, clan := range clans {
		perRegion := map[int]int{}
		for _, id := range clan {
			if seen[id] {
				t.Fatalf("party %d in two clans", id)
			}
			seen[id] = true
			perRegion[regionOf[id]]++
		}
		// 30 parties, 5 regions, 2 clans: exactly 3 per region per clan.
		for r := 0; r < 5; r++ {
			if perRegion[r] != 3 {
				t.Fatalf("clan %d region %d has %d members, want 3", ci, r, perRegion[r])
			}
		}
	}
	if len(seen) != 30 {
		t.Fatalf("covered %d of 30", len(seen))
	}
}

func TestRatFromExp(t *testing.T) {
	// 2^-20 ~ 9.54e-7
	got := Float(RatFromExp(20))
	if got < 9.5e-7 || got > 9.6e-7 {
		t.Fatalf("2^-20 = %g", got)
	}
	if Float(RatFromExp(30)) > 1e-9 {
		t.Fatal("2^-30 should be below 1e-9")
	}
}

func TestMaxFaulty(t *testing.T) {
	for n, want := range map[int]int{4: 1, 7: 2, 10: 3, 50: 16, 100: 33, 150: 49, 151: 50} {
		if got := MaxFaulty(n); got != want {
			t.Errorf("MaxFaulty(%d) = %d, want %d", n, got, want)
		}
		// n > 3f always.
		if n <= 3*MaxFaulty(n) {
			t.Errorf("n=%d violates n > 3f", n)
		}
	}
}

// parties lists the n parties of a universe, ascending.
func parties(n int) []types.NodeID {
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	return ids
}
