package core

import (
	"fmt"
	"slices"
	"time"

	"clanbft/internal/committee"
	"clanbft/internal/crypto"
	"clanbft/internal/types"
)

// Params are the protocol settings every layer shares. The library's
// Options, the simulator's harness.Config and Config embed them, and fill
// gives them their defaults, here and nowhere else.
type Params struct {
	// Members lists the parties active in epoch 0; nil means all N. N is
	// the universe capacity (every party, active or not, holds a registry
	// key and a slot in bitmaps); non-members run as observers until a
	// committed ReconfigTx admits them at an epoch fence.
	Members []types.NodeID
	// ReconfigDelay is the gap D between a committed reconfiguration and
	// its fence: an epoch scheduled by the leader commit at round L starts
	// at round L+D+1. It doubles as the propose throttle — no party
	// proposes round r before processing a leader commit at round >= r-D —
	// which is what guarantees every proposer past a fence has already
	// installed the fence's epoch. Default 32, or 2f+2 where that is more.
	// With more than one anchor a round a value below 2f+2 is rejected
	// (anchorFenceFloor): a slot without a vote quorum is decided by an
	// anchor two rounds above it, so the commit frontier trails the
	// proposals it needs, and a tighter throttle stops the rounds that
	// would move it.
	ReconfigDelay types.Round
	// LeaderReputation enables the Shoal++-style reputation schedule:
	// committed timeout/no-vote certificates ordered through the DAG
	// demote the offending leader from the rotation for ReputationWindow
	// rounds (see internal/order). Off by default: the static round-robin
	// schedule is preserved byte-for-byte.
	LeaderReputation bool
	// ReputationWindow is the demotion length in rounds (default 64).
	ReputationWindow types.Round
	// RoundTimeout bounds the wait for a round's leader vertex
	// (default 3 s).
	RoundTimeout time.Duration
}

// MemberSet returns Members, or all n parties when Members is nil.
func (p *Params) MemberSet(n int) []types.NodeID {
	if p.Members != nil {
		return p.Members
	}
	all := make([]types.NodeID, n)
	for i := range all {
		all[i] = types.NodeID(i)
	}
	return all
}

// fill checks the settings against a universe of n parties ordered with
// leadersPerRound anchors a round, and fills in their defaults. Members
// becomes an ascending copy.
func (p *Params) fill(n, leadersPerRound int) {
	p.Members = slices.Clone(p.MemberSet(n))
	slices.Sort(p.Members)
	for i, id := range p.Members {
		if int(id) >= n || (i > 0 && id == p.Members[i-1]) {
			panic("core: Members must be unique and within [0,N)")
		}
	}
	if p.RoundTimeout == 0 {
		p.RoundTimeout = 3 * time.Second
	}
	floor := types.Round(1)
	if leadersPerRound > 1 {
		floor = anchorFenceFloor(n)
	}
	if p.ReconfigDelay == 0 {
		p.ReconfigDelay = max(32, floor)
	} else if p.ReconfigDelay < floor {
		panic(fmt.Sprintf("core: ReconfigDelay %d is below %d, the least that %d anchors a round order under with N=%d (see anchorFenceFloor); raise it, or set LeadersPerRound to 1 so that each slot is decided from the next round",
			p.ReconfigDelay, floor, leadersPerRound, n))
	}
	if p.ReputationWindow == 0 {
		p.ReputationWindow = 64
	}
}

// SampleClans is the one clan sampler: genesis and every epoch fence draw
// clans through it, so all parties land on the same clans from the same
// inputs. ModeSingleClan draws one clan of size parties from members;
// ModeMultiClan splits all members into count clans of equal size; size and
// count are clamped to the member count. ModeBaseline has no clans (nil): the whole member set
// is its one clan. Regions, when non-nil, gives each party's region, indexed
// by NodeID over the whole universe (so members must be all of it), and
// spreads each clan evenly across regions instead of sampling it uniformly.
func SampleClans(mode Mode, members []types.NodeID, size, count int, seed int64, regions []int) [][]types.NodeID {
	switch mode {
	case ModeSingleClan:
		size = min(size, len(members))
		if regions != nil {
			return [][]types.NodeID{committee.BalancedClan(regions, size, seed)}
		}
		return [][]types.NodeID{committee.SampleClanMembers(members, size, seed)}
	case ModeMultiClan:
		count = min(count, len(members))
		if regions != nil {
			return committee.BalancedPartition(regions, count, seed)
		}
		return committee.PartitionMembers(members, count, seed)
	}
	return nil
}

// Genesis is a deployment's epoch 0: every party's key pair, the registry
// that checks their signatures, and the clans.
type Genesis struct {
	Keys  []crypto.KeyPair
	Reg   *crypto.Registry
	Clans [][]types.NodeID
}

// NewGenesis derives the epoch 0 of a universe of n parties from one seed:
// the keys from seed+1, and the clans from seed+2 through SampleClans over
// members (nil: all n). The library and the simulator both call it, so the
// same seed gives a socket deployment and a simulated one the same keys, and
// the same clans unless the simulator spreads them across regions.
func NewGenesis(seed int64, n int, mode Mode, members []types.NodeID, clanSize, numClans int, regions []int) Genesis {
	keys := crypto.GenerateKeys(n, uint64(seed)+1)
	p := Params{Members: members}
	return Genesis{
		Keys:  keys,
		Reg:   crypto.NewRegistry(keys, true),
		Clans: SampleClans(mode, p.MemberSet(n), clanSize, numClans, seed+2, regions),
	}
}
