package core

import (
	"sort"

	"clanbft/internal/types"
)

// Reputation-driven leader schedule (Shoal++-style). The static round-robin
// rotation stalls a full RoundTimeout every time the rotation lands on a
// crashed or partitioned party. With LeaderReputation enabled, committed
// evidence of a missed slot — a timeout certificate or no-vote certificate
// ordered through the DAG — demotes the offending party from the leader
// rotation for ReputationWindow rounds. Every party sees the same evidence
// in the same total order, so every party derives a byte-identical schedule.
//
// Determinism rests on the same fence-delay argument epochs use: an offense
// observed at ordering anchor round C applies from round C+ReconfigDelay+1.
// The propose throttle guarantees no party proposes past
// lastCommitRound+ReconfigDelay, so by the time any round the event affects
// can be proposed, every live proposer has ordered the anchor that carried
// the evidence. Within one party, pending leader commits drain in strictly
// increasing sequence order, so the table consulted for round r is final
// (all evidence with apply <= r was collected under earlier anchors) before
// any vertex of round r is ordered.

// repEvent is one committed offense: the offender leaves the rotation for
// rounds [apply, expire) within the epoch segment that owns apply.
type repEvent struct {
	offender types.NodeID
	apply    types.Round
	expire   types.Round
}

// repState is the node's view of committed reputation evidence plus a
// single-segment cache of the derived eligible set. Demotions change only at
// event apply/expire rounds and epoch fences, so the eligible list is
// constant over contiguous round segments; leaderAt is called on every
// delivery and vote, so the cache keeps the hot path allocation-free.
type repState struct {
	events      []repEvent           // append-only in commit order, GC'd by expiry
	offenseSeen map[types.Round]bool // timed-out rounds already charged

	cacheValid bool
	cacheEpoch uint64
	cacheLo    types.Round
	cacheHi    types.Round // exclusive; 0 = unbounded above
	cacheElig  []types.NodeID

	// retally marks that an event applied at or below already-delivered
	// rounds, so the commit rule was applied to rounds >= retallyFrom under
	// a stale table and must be re-applied (retallyVotes).
	// Steady-state nodes never trip this (evidence applies beyond the
	// delivery frontier); a node catching up after a crash delivers far
	// ahead of its commit frontier and does.
	retally     bool
	retallyFrom types.Round
}

// eligibleAt returns the leader-eligible members for round r: the epoch's
// member list minus parties demoted by active reputation events. With
// reputation disabled (or no evidence) this is exactly the epoch member
// list, preserving the static schedule byte-for-byte.
func (n *Node) eligibleAt(r types.Round) []types.NodeID {
	ep := n.epochOf(r)
	if !n.cfg.LeaderReputation || len(n.rep.events) == 0 {
		return ep.members
	}
	if n.rep.cacheValid && n.rep.cacheEpoch == ep.num && r >= n.rep.cacheLo &&
		(n.rep.cacheHi == 0 || r < n.rep.cacheHi) {
		return n.rep.cacheElig
	}
	return n.computeEligible(r, ep)
}

// computeEligible rebuilds the eligible set for round r and caches it with
// the surrounding segment of rounds that share it. Demotions are capped at
// the epoch's f, worst offenders first (offense count desc, NodeID asc), so
// at least 2f+1 of the 3f+1 members always remain in the rotation.
func (n *Node) computeEligible(r types.Round, ep *epochState) []types.NodeID {
	lo, hi := ep.startRound, types.Round(0)
	for i := 0; i+1 < len(n.epochs); i++ {
		if n.epochs[i] == ep {
			hi = n.epochs[i+1].startRound
		}
	}
	var counts map[types.NodeID]int
	for _, ev := range n.rep.events {
		// Reputation resets at epoch fences: only events applying inside
		// this epoch's round segment count.
		if ev.apply < ep.startRound || (hi != 0 && ev.apply >= hi) {
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
	elig := ep.members
	if len(counts) > 0 {
		type offender struct {
			id types.NodeID
			c  int
		}
		offs := make([]offender, 0, len(counts))
		for id, c := range counts {
			if ep.isMember[id] {
				offs = append(offs, offender{id, c})
			}
		}
		sort.Slice(offs, func(i, j int) bool {
			if offs[i].c != offs[j].c {
				return offs[i].c > offs[j].c
			}
			return offs[i].id < offs[j].id
		})
		if len(offs) > ep.f {
			offs = offs[:ep.f] // never demote more than f: quorums of the rest must exist
		}
		if len(offs) > 0 {
			demoted := make(map[types.NodeID]bool, len(offs))
			for _, o := range offs {
				demoted[o.id] = true
			}
			elig = make([]types.NodeID, 0, len(ep.members)-len(offs))
			for _, m := range ep.members {
				if !demoted[m] {
					elig = append(elig, m)
				}
			}
		}
	}
	n.rep.cacheValid = true
	n.rep.cacheEpoch = ep.num
	n.rep.cacheLo, n.rep.cacheHi = lo, hi
	n.rep.cacheElig = elig
	return elig
}

// noteOffense charges one committed timeout (a TC or NVC ordered through the
// DAG) against the primary leader of the round that timed out. commitRound is
// the round of the ordering anchor whose causal history carried the evidence;
// the demotion applies ReconfigDelay+1 rounds past it — the same fence
// distance epochs use — so every party folds the event into its schedule
// before any affected round can be proposed. One offense per timed-out round:
// a TC and an NVC for the same round, or the same TC riding many vertices,
// charge once.
func (n *Node) noteOffense(timedOut, commitRound types.Round) {
	if n.rep.offenseSeen == nil {
		n.rep.offenseSeen = make(map[types.Round]bool)
	}
	if n.rep.offenseSeen[timedOut] {
		return
	}
	n.rep.offenseSeen[timedOut] = true
	// The schedule for timedOut is final here: any evidence applying at or
	// before it was ordered under an anchor at least ReconfigDelay+1 rounds
	// below, which drained earlier.
	offender := n.leaderAt(timedOut, 0)
	apply := commitRound + n.cfg.ReconfigDelay + 1
	n.rep.events = append(n.rep.events, repEvent{
		offender: offender,
		apply:    apply,
		expire:   apply + n.cfg.ReputationWindow,
	})
	n.rep.cacheValid = false
	n.Metrics.ReputationOffenses++
	if !n.rep.retally || apply < n.rep.retallyFrom {
		n.rep.retally = true
		n.rep.retallyFrom = apply
	}
}

// retallyVotes re-applies the commit rule to every round at or past `from`.
// Called from drainCommits between head commits, after new evidence moved the
// table under already-delivered rounds (the catch-up path — a recovering node
// delivers the frontier long before it orders the evidence committed in
// between). The vote tallies are per source and schedule-independent
// (anchorRound), and primaryIn reads the current table, so nothing is
// recounted or re-marked: the positions that are anchors under the new table
// are simply checked against the tallies they already have. checkCommit is
// idempotent and defers to the running drain, so this is safe mid-drain.
func (n *Node) retallyVotes(from types.Round) {
	for r := range n.ord.anchors {
		if r < from {
			continue
		}
		for k := n.anchorsAt(r) - 1; k >= 0; k-- {
			n.checkCommit(types.Position{Round: r, Source: n.leaderAt(r, k)})
		}
	}
}

// gcReputation drops events past their expiry and offense markers below the
// ordering horizon (matching the DAG's MinRound: no vertex carrying evidence
// for an older round can be inserted, so no duplicate charge is possible).
func (n *Node) gcReputation(horizon types.Round) {
	if len(n.rep.events) > 0 {
		live := n.rep.events[:0]
		for _, ev := range n.rep.events {
			if ev.expire >= horizon {
				live = append(live, ev)
			}
		}
		if len(live) != len(n.rep.events) {
			n.rep.events = live
			n.rep.cacheValid = false
		}
	}
	for r := range n.rep.offenseSeen {
		if r < horizon {
			delete(n.rep.offenseSeen, r)
		}
	}
}

// LeaderSchedule returns the primary leader for each round in [lo, hi), as
// derived from this node's committed evidence. Every correct node returns an
// identical slice for any range at or below its commit horizon — the
// determinism tests assert exactly that.
func (n *Node) LeaderSchedule(lo, hi types.Round) []types.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	if hi < lo {
		hi = lo
	}
	out := make([]types.NodeID, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, n.leaderAt(r, 0))
	}
	return out
}
