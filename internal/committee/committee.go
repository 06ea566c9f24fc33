// Package committee implements the statistical machinery of the paper's
// clan selection: exact hypergeometric failure probabilities for a single
// sampled clan (Section 5, Equation 1), the exact counting analysis for
// partitioning the tribe into multiple disjoint clans (Section 6.2,
// Equations 3-7, generalized to any number of clans), the clan-size solver
// behind Figure 1, and seeded clan sampling/partitioning.
//
// All probabilities are computed exactly with math/big rationals; callers
// get both the exact value and a float64 view. This avoids the floating
// point underflow that plagues tail probabilities around 1e-9.
package committee

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"clanbft/internal/types"
)

// MaxFaulty returns f = floor((n-1)/3), the tribe's Byzantine bound.
func MaxFaulty(n int) int { return (n - 1) / 3 }

// ClanMaxFaulty returns f_c, the largest number of Byzantine members a clan
// of size nc can contain while keeping an honest majority: byz < nc/2.
func ClanMaxFaulty(nc int) int { return (nc+1)/2 - 1 }

var binomCache = map[[2]int]*big.Int{}

// binom returns C(n, k) exactly (0 for out-of-range k), memoized.
func binom(n, k int) *big.Int {
	if k < 0 || k > n || n < 0 {
		return big.NewInt(0)
	}
	if k > n-k {
		k = n - k
	}
	key := [2]int{n, k}
	if v, ok := binomCache[key]; ok {
		return v
	}
	v := new(big.Int).Binomial(int64(n), int64(k))
	binomCache[key] = v
	return v
}

// DishonestMajorityProb computes Equation 1: the probability that a clan of
// size nc sampled uniformly without replacement from n parties containing f
// Byzantine ones ends up with at least ceil(nc/2) Byzantine members. For
// even nc this counts a 50/50 tie as a failure (the honest members are then
// not a majority), exactly as Equation 1 is written.
func DishonestMajorityProb(n, f, nc int) *big.Rat {
	return tailProb(n, f, nc, (nc+1)/2)
}

// DishonestStrictMajorityProb is the variant where only a strict Byzantine
// majority (> nc/2) counts as failure; ties are tolerated. The paper's
// evaluation setup (clan sizes 32/60/80 for n=50/100/150 at threshold 1e-6,
// Section 7) is only reproducible under this convention, so both are
// provided. For odd nc the two coincide.
func DishonestStrictMajorityProb(n, f, nc int) *big.Rat {
	return tailProb(n, f, nc, nc/2+1)
}

func tailProb(n, f, nc, kmin int) *big.Rat {
	if nc <= 0 || nc > n || f < 0 || f > n {
		panic(fmt.Sprintf("committee: bad parameters n=%d f=%d nc=%d", n, f, nc))
	}
	num := new(big.Int)
	for k := kmin; k <= nc; k++ {
		term := new(big.Int).Mul(binom(f, k), binom(n-f, nc-k))
		num.Add(num, term)
	}
	return new(big.Rat).SetFrac(num, binom(n, nc))
}

// MinClanSize returns the smallest clan size nc such that
// DishonestMajorityProb(n, f, nc) <= threshold. It is the solver behind
// Figure 1 (threshold 1e-9). Returns n if no smaller clan satisfies the
// threshold.
func MinClanSize(n, f int, threshold *big.Rat) int {
	return minSize(n, f, threshold, DishonestMajorityProb)
}

// MinClanSizeStrict is MinClanSize under the strict-majority convention
// (ties tolerated); it reproduces the Section 7 clan sizes.
func MinClanSizeStrict(n, f int, threshold *big.Rat) int {
	return minSize(n, f, threshold, DishonestStrictMajorityProb)
}

func minSize(n, f int, threshold *big.Rat, prob func(int, int, int) *big.Rat) int {
	lo, hi := 1, n
	// The probability is not strictly monotone in nc (parity of the
	// majority threshold matters), so binary search needs a monotone
	// wrapper: find the smallest nc where this and every larger nc
	// satisfy the bound. In practice the tail decays fast enough that a
	// forward scan from a binary-searched lower bound is exact and cheap.
	for lo < hi {
		mid := (lo + hi) / 2
		if prob(n, f, mid).Cmp(threshold) <= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// Walk back while smaller sizes also satisfy the bound (parity dips),
	// then forward to guarantee the returned size itself satisfies it.
	for lo > 1 && prob(n, f, lo-1).Cmp(threshold) <= 0 {
		lo--
	}
	for lo <= n && prob(n, f, lo).Cmp(threshold) > 0 {
		lo++
	}
	return lo
}

// RatFromExp returns 2^-mu as an exact rational (mu in bits), matching the
// paper's security-threshold notation Pr <= 2^-mu.
func RatFromExp(mu uint) *big.Rat {
	den := new(big.Int).Lsh(big.NewInt(1), mu)
	return new(big.Rat).SetFrac(big.NewInt(1), den)
}

// RatFromFloat converts a plain float threshold like 1e-9 to a rational.
func RatFromFloat(v float64) *big.Rat {
	r := new(big.Rat)
	if _, ok := r.SetString(fmt.Sprintf("%g", v)); !ok {
		panic("committee: bad threshold")
	}
	return r
}

// MultiClanFailureProb computes the probability that at least one clan has a
// dishonest majority when the tribe of n parties (f Byzantine) is partitioned
// uniformly at random into q disjoint clans with the given sizes
// (len(sizes) == q, sum(sizes) <= n). This is the exact counting argument of
// Section 6.2 (Equations 3-7), generalized from q in {2,3} to any q via
// dynamic programming over the number of Byzantine parties consumed so far.
func MultiClanFailureProb(n, f int, sizes []int) *big.Rat {
	total := 0
	for _, s := range sizes {
		if s <= 0 {
			panic("committee: non-positive clan size")
		}
		total += s
	}
	if total > n {
		panic(fmt.Sprintf("committee: clans of total size %d exceed tribe %d", total, n))
	}
	nh := n - f

	// N: total ordered ways to draw the clans (Equation 3 / 6 generalized).
	N := big.NewInt(1)
	rem := n
	for _, s := range sizes {
		N.Mul(N, binom(rem, s))
		rem -= s
	}

	// s: ways where every clan keeps an honest majority (Equation 4 / 7
	// generalized). ways[b] counts arrangements of the clans processed so
	// far that consumed exactly b Byzantine parties.
	ways := map[int]*big.Int{0: big.NewInt(1)}
	used := 0 // slots assigned so far
	for _, nc := range sizes {
		fc := ClanMaxFaulty(nc)
		next := map[int]*big.Int{}
		for b, cnt := range ways {
			honestUsed := used - b
			for w := 0; w <= fc && w <= nc && b+w <= f; w++ {
				h := nc - w
				if h > nh-honestUsed {
					continue
				}
				term := new(big.Int).Mul(binom(f-b, w), binom(nh-honestUsed, h))
				term.Mul(term, cnt)
				if acc, ok := next[b+w]; ok {
					acc.Add(acc, term)
				} else {
					next[b+w] = term
				}
			}
		}
		ways = next
		used += nc
	}
	good := new(big.Int)
	for _, cnt := range ways {
		good.Add(good, cnt)
	}
	s := new(big.Rat).SetFrac(good, N)
	return new(big.Rat).Sub(big.NewRat(1, 1), s)
}

// EqualPartitionSizes splits n parties into q clans as evenly as possible.
func EqualPartitionSizes(n, q int) []int {
	sizes := make([]int, q)
	base, extra := n/q, n%q
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}

// Float returns a float64 view of an exact probability; values below
// ~1e-308 come back as 0, which is fine for reporting.
func Float(r *big.Rat) float64 {
	f, _ := r.Float64()
	if math.IsInf(f, 0) {
		return 0
	}
	return f
}

// SampleClanMembers draws a uniformly random clan of size nc from members
// (an epoch's active subset of the node universe, or all of it), returning
// sorted member IDs. Deterministic per seed.
func SampleClanMembers(members []types.NodeID, nc int, seed int64) []types.NodeID {
	if nc > len(members) {
		panic(fmt.Sprintf("committee: clan size %d exceeds %d members", nc, len(members)))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(members))
	out := make([]types.NodeID, nc)
	for i := 0; i < nc; i++ {
		out[i] = members[perm[i]]
	}
	sortNodeIDs(out)
	return out
}

// PartitionMembers splits all members into q clans with
// EqualPartitionSizes, uniformly at random, deterministic per seed.
func PartitionMembers(members []types.NodeID, q int, seed int64) [][]types.NodeID {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(members))
	sizes := EqualPartitionSizes(len(members), q)
	out := make([][]types.NodeID, q)
	idx := 0
	for c, s := range sizes {
		clan := make([]types.NodeID, s)
		for i := 0; i < s; i++ {
			clan[i] = members[perm[idx]]
			idx++
		}
		sortNodeIDs(clan)
		out[c] = clan
	}
	return out
}

// BalancedClan selects nc members spreading them as evenly as possible
// across regions (regionOf[i] gives party i's region), mirroring the paper's
// evaluation setup, which distributed clan nodes evenly across GCP regions
// "instead of randomly sampling them to produce more uniform output".
func BalancedClan(regionOf []int, nc int, seed int64) []types.NodeID {
	rng := rand.New(rand.NewSource(seed))
	byRegion := map[int][]types.NodeID{}
	var regions []int
	for i, r := range regionOf {
		if _, ok := byRegion[r]; !ok {
			regions = append(regions, r)
		}
		byRegion[r] = append(byRegion[r], types.NodeID(i))
	}
	for _, r := range regions {
		ids := byRegion[r]
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	}
	var members []types.NodeID
	for len(members) < nc {
		progressed := false
		for _, r := range regions {
			if len(members) == nc {
				break
			}
			if ids := byRegion[r]; len(ids) > 0 {
				members = append(members, ids[0])
				byRegion[r] = ids[1:]
				progressed = true
			}
		}
		if !progressed {
			panic("committee: not enough parties for clan")
		}
	}
	sortNodeIDs(members)
	return members
}

// BalancedPartition splits all n parties (n = len(regionOf)) into q clans,
// spreading each region's parties round-robin across clans so every clan has
// a near-identical regional mix — the multi-clan analogue of BalancedClan.
func BalancedPartition(regionOf []int, q int, seed int64) [][]types.NodeID {
	rng := rand.New(rand.NewSource(seed))
	byRegion := map[int][]types.NodeID{}
	var regions []int
	for i, r := range regionOf {
		if _, ok := byRegion[r]; !ok {
			regions = append(regions, r)
		}
		byRegion[r] = append(byRegion[r], types.NodeID(i))
	}
	out := make([][]types.NodeID, q)
	next := 0
	for _, r := range regions {
		ids := byRegion[r]
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		for _, id := range ids {
			out[next%q] = append(out[next%q], id)
			next++
		}
	}
	for _, clan := range out {
		sortNodeIDs(clan)
	}
	return out
}

func sortNodeIDs(ids []types.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
