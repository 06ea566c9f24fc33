package order

import (
	"slices"
	"sort"

	"clanbft/internal/types"
)

// The anchor schedule and the reputation table behind it.
//
// Slot k of round r is eligible member (r+k) mod M, for k below
// Anchors(r) = min(LeadersPerRound, M): the primary (slot 0) advances one
// member per round whatever the slot count, so a crashed member is primary
// once per M rounds, never pinned there, and a round's slots are M distinct
// members.
//
// With Config.Reputation on (Shoal++-style), committed evidence of a missed
// slot — a timeout or no-vote certificate ordered through the DAG, handed in
// through Offense — demotes the offending party from the rotation for
// ReputationWindow rounds. Every party sees the same evidence in the same
// total order, so every party derives a byte-identical schedule. An offense
// observed at ordering anchor round C applies from round C+ReconfigDelay+1,
// the distance epoch fences use: the propose throttle keeps every party from
// proposing past its last ordered round plus ReconfigDelay, so by the time a
// round the event affects can be proposed, every live proposer has ordered
// the anchor that carried the evidence.

// repEvent is one committed offense: the offender leaves the rotation for
// rounds [apply, expire) within the epoch that owns apply.
type repEvent struct {
	offender types.NodeID
	apply    types.Round
	expire   types.Round
}

// reputation is the committed evidence plus a one-segment cache of the
// eligible set it derives. Demotions change only at event apply/expire rounds
// and epoch fences, so the eligible list is constant over contiguous round
// segments; the schedule is read on every vote and delivery, so the cache
// keeps that path allocation-free.
type reputation struct {
	events      []repEvent           // in commit order, trimmed by GC after expiry
	offenseSeen map[types.Round]bool // timed-out rounds already charged

	cacheValid bool
	cacheEpoch uint64
	cacheLo    types.Round
	cacheHi    types.Round // exclusive; 0 = unbounded above
	cacheElig  []types.NodeID
}

// Eligible returns the leader-eligible members for round r: the epoch's
// members minus parties demoted by active reputation events. Without
// evidence this is exactly the epoch's member list.
func (o *Orderer) Eligible(r types.Round) []types.NodeID {
	ep := o.cfg.EpochOf(r)
	if len(o.rep.events) == 0 {
		return ep.Members
	}
	if o.rep.cacheValid && o.rep.cacheEpoch == ep.Num && r >= o.rep.cacheLo &&
		(o.rep.cacheHi == 0 || r < o.rep.cacheHi) {
		return o.rep.cacheElig
	}
	return o.computeEligible(r, ep)
}

// computeEligible rebuilds the eligible set for round r and caches it with
// the surrounding segment of rounds that share it. Demotions are capped at
// the epoch's f, worst offenders first (offense count desc, NodeID asc), so
// at least 2f+1 of the 3f+1 members always remain in the rotation. The cache
// is keyed by epoch number, so a segment that runs past a fence installed
// later is never read for the rounds beyond it.
func (o *Orderer) computeEligible(r types.Round, ep *Epoch) []types.NodeID {
	lo, hi := ep.Start, types.Round(0)
	var counts map[types.NodeID]int
	for _, ev := range o.rep.events {
		// Reputation resets at epoch fences: events applying before this
		// epoch's first round do not count in it.
		if ev.apply < ep.Start {
			continue
		}
		switch {
		case ev.apply > r: // future: bounds the segment above
			if hi == 0 || ev.apply < hi {
				hi = ev.apply
			}
		case ev.expire <= r: // expired: bounds the segment below
			if ev.expire > lo {
				lo = ev.expire
			}
		default: // active on [apply, expire)
			if counts == nil {
				counts = make(map[types.NodeID]int)
			}
			counts[ev.offender]++
			if ev.apply > lo {
				lo = ev.apply
			}
			if hi == 0 || ev.expire < hi {
				hi = ev.expire
			}
		}
	}
	elig := ep.Members
	if len(counts) > 0 {
		type offender struct {
			id types.NodeID
			c  int
		}
		offs := make([]offender, 0, len(counts))
		for id, c := range counts {
			if _, member := slices.BinarySearch(ep.Members, id); member {
				offs = append(offs, offender{id, c})
			}
		}
		sort.Slice(offs, func(i, j int) bool {
			if offs[i].c != offs[j].c {
				return offs[i].c > offs[j].c
			}
			return offs[i].id < offs[j].id
		})
		if len(offs) > ep.F {
			offs = offs[:ep.F] // never demote more than f: quorums of the rest must exist
		}
		if len(offs) > 0 {
			demoted := make(map[types.NodeID]bool, len(offs))
			for _, of := range offs {
				demoted[of.id] = true
			}
			elig = make([]types.NodeID, 0, len(ep.Members)-len(offs))
			for _, m := range ep.Members {
				if !demoted[m] {
					elig = append(elig, m)
				}
			}
		}
	}
	o.rep.cacheValid = true
	o.rep.cacheEpoch = ep.Num
	o.rep.cacheLo, o.rep.cacheHi = lo, hi
	o.rep.cacheElig = elig
	return elig
}

// Offense charges one committed timeout — a TC or NVC for round timedOut,
// found in the causal history of the anchor of round at — against the
// primary of timedOut. The demotion applies ReconfigDelay+1 rounds past at,
// so every party folds it into its schedule before any affected round can be
// proposed. One offense per timed-out round: a TC and an NVC for the same
// round, or the same TC riding many vertices, charge once. It reports whether
// this call charged (never with reputation off). Slot fates decided so far
// are dropped: the schedule they were read under has moved.
func (o *Orderer) Offense(timedOut, at types.Round) bool {
	if !o.cfg.Reputation || o.rep.offenseSeen[timedOut] {
		return false
	}
	o.rep.offenseSeen[timedOut] = true
	// The schedule for timedOut is final here: any evidence applying at or
	// before it was ordered under an anchor at least ReconfigDelay+1 rounds
	// below, which was ordered earlier.
	apply := at + o.cfg.ReconfigDelay + 1
	o.rep.events = append(o.rep.events, repEvent{
		offender: o.Leader(timedOut),
		apply:    apply,
		expire:   apply + o.cfg.ReputationWindow,
	})
	o.rep.cacheValid = false
	o.forget()
	return true
}

// gcReputation drops events past their expiry and offense markers below the
// horizon (the DAG's MinRound: no vertex carrying evidence for an older round
// can be inserted any more, so no duplicate charge is possible).
func (o *Orderer) gcReputation(horizon types.Round) {
	if len(o.rep.events) > 0 {
		live := o.rep.events[:0]
		for _, ev := range o.rep.events {
			if ev.expire >= horizon {
				live = append(live, ev)
			}
		}
		if len(live) != len(o.rep.events) {
			o.rep.events = live
			o.rep.cacheValid = false
		}
	}
	for r := range o.rep.offenseSeen {
		if r < horizon {
			delete(o.rep.offenseSeen, r)
		}
	}
}

// Anchors returns how many anchor slots round r has: LeadersPerRound,
// clamped to the round's eligible set. A demotion or a smaller epoch shrinks
// it, and slots at or past it do not exist.
func (o *Orderer) Anchors(r types.Round) int {
	return min(o.cfg.LeadersPerRound, len(o.Eligible(r)))
}

// LeaderAt returns the member in slot k of round r (k < Anchors(r)).
func (o *Orderer) LeaderAt(r types.Round, k int) types.NodeID {
	ms := o.Eligible(r)
	return ms[(uint64(r)+uint64(k))%uint64(len(ms))]
}

// Leader returns round r's primary — the one gating round advancement,
// timeouts and no-vote certificates.
func (o *Orderer) Leader(r types.Round) types.NodeID { return o.LeaderAt(r, 0) }

// SlotIndex returns which anchor slot of its round pos occupies, or -1 if it
// is not an anchor.
func (o *Orderer) SlotIndex(pos types.Position) int {
	ms := o.Eligible(pos.Round)
	mi, ok := slices.BinarySearch(ms, pos.Source)
	if !ok {
		return -1
	}
	M := uint64(len(ms))
	k := (uint64(mi) + M - uint64(pos.Round)%M) % M
	if k < uint64(o.Anchors(pos.Round)) {
		return int(k)
	}
	return -1
}

// Slots are numbered round-major, slot-minor, with the fixed stride N: a
// round never has more than N slots, so sequence numbers stay comparable
// across rounds whose slot counts differ.
func (o *Orderer) slotSeq(pos types.Position, idx int) uint64 {
	return uint64(pos.Round)*uint64(o.cfg.N) + uint64(idx)
}

// slotPos inverts slotSeq for an existing slot.
func (o *Orderer) slotPos(seq uint64) types.Position {
	r := types.Round(seq / uint64(o.cfg.N))
	return types.Position{Round: r, Source: o.LeaderAt(r, int(seq%uint64(o.cfg.N)))}
}

// nextSlot returns the first existing slot at or after seq: seq itself, or
// slot 0 of the following round when seq's index is past its round's anchors.
func (o *Orderer) nextSlot(seq uint64) uint64 {
	N := uint64(o.cfg.N)
	if r := seq / N; seq%N >= uint64(o.Anchors(types.Round(r))) {
		return (r + 1) * N
	}
	return seq
}
