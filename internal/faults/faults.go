// Package faults is a seeded, deterministic fault-injection layer for
// testing clanbft: per-link message drop, duplication, reordering and delay,
// named network partitions with heal events, whole-node crash/restart, and
// Byzantine parties whose outbound traffic a chain of mutators rewrites
// (Net.SetByzantine). It composes with every transport as one wrapping
// transport.Endpoint, so the code path under test is exactly the production
// one.
//
// Determinism contract: a Net seeded with the same value, driven by the same
// Schedule over the deterministic simulator (internal/simnet), makes exactly
// the same per-message decisions and produces a byte-identical event Trace
// across runs. Under real transports (goroutine scheduling) per-message
// decisions are still seeded but their interleaving is not reproducible; the
// simulator is the substrate for reproducible chaos runs.
//
// The layer injects faults at the sender: a dropped message consumes no
// wire resources and is counted in the wrapper's Stats().MsgsDropped, so
// transport drop accounting stays exact under partitions and crashes (peers
// retrying a dead node see their retries as drops, not sends).
package faults

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"

	"clanbft/internal/types"
)

// Kind is a fault event type.
type Kind uint8

const (
	// KindDrop sets the drop probability P on the selected link(s).
	KindDrop Kind = iota
	// KindDup sets the duplication probability P on the selected link(s):
	// each affected message is sent twice.
	KindDup
	// KindDelay adds a fixed Delay to every message on the selected
	// link(s).
	KindDelay
	// KindReorder delays each message on the selected link(s) by an
	// independent uniform random duration in [0, Delay], which reorders
	// messages relative to each other.
	KindReorder
	// KindPartition installs a named partition: nodes listed in different
	// Groups cannot exchange messages until the partition heals. Nodes in
	// no group are unaffected.
	KindPartition
	// KindHeal removes the named partition; with an empty Name it heals
	// everything — all partitions and all link rules.
	KindHeal
	// KindCrash marks Node as crashed (all its inbound and outbound
	// traffic is dropped) and invokes the driver's Crash hook, which tears
	// the engine down.
	KindCrash
	// KindRestart clears Node's crashed mark and invokes the driver's
	// Restart hook, which rebuilds the node from persistent-store recovery
	// (optionally simulating a torn WAL tail first, see Torn).
	KindRestart
)

func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDup:
		return "dup"
	case KindDelay:
		return "delay"
	case KindReorder:
		return "reorder"
	case KindPartition:
		return "partition"
	case KindHeal:
		return "heal"
	case KindCrash:
		return "crash"
	case KindRestart:
		return "restart"
	}
	return "unknown"
}

// All selects every node on a link side (wildcard for Event.From / Event.To).
const All = types.NodeID(0xFFFF)

// Torn tail modes for KindRestart (Event.Torn).
const (
	// TornNone restarts from the WAL exactly as the crash left it.
	TornNone = iota
	// TornAppend appends Arg bytes of garbage (a partial, unacknowledged
	// record caught mid-write) before reopening — replay must detect and
	// truncate it. Arg <= 0 appends 8 bytes.
	TornAppend
	// TornLastBoundary truncates the WAL at the last complete record
	// boundary, discarding any partial tail bytes.
	TornLastBoundary
	// TornLastRecord truncates one byte short of the last record boundary,
	// destroying the final complete record. This loses an acknowledged
	// write — outside the SyncEvery durability contract — and exercises
	// how the cluster tolerates a recovered node with a lost suffix.
	TornLastRecord
)

// Event is one scheduled fault. Fields are interpreted per Kind; zero values
// mean "unset".
type Event struct {
	// At is the virtual time the event fires, relative to the driving
	// clock's epoch.
	At   time.Duration
	Kind Kind

	// From/To select the link(s) for KindDrop/KindDup/KindDelay/
	// KindReorder. All is a wildcard for either side.
	From, To types.NodeID
	// P is the probability for KindDrop/KindDup (0 clears the rule).
	P float64
	// Delay parameterizes KindDelay (fixed) and KindReorder (uniform max).
	Delay time.Duration
	// Match, when set, narrows the link rule(s) this event touches to the
	// messages it accepts (one position's echoes, say); everything else
	// crosses those links as if they had no rule. Nil matches every message.
	// It replaces the link's previous Match, and is cleared with the rule.
	Match func(types.Message) bool

	// Name identifies a partition (KindPartition/KindHeal).
	Name string
	// Groups are the partition's sides (KindPartition).
	Groups [][]types.NodeID

	// Node is the crash/restart target.
	Node types.NodeID
	// Torn selects the WAL-tail damage applied before a restart
	// (TornNone/TornAppend/TornLastBoundary/TornLastRecord); Arg is its
	// parameter.
	Torn int
	Arg  int64
}

// Schedule is a reproducible fault script: a seed for the per-message random
// decisions plus a list of timed events.
type Schedule struct {
	Seed   int64
	Events []Event
}

// ---------------------------------------------------------------------------
// Trace: the reproducible event log.

// Trace accumulates a deterministic, human-readable log of applied fault
// events and observed violations. With identical seed and schedule on the
// simulator, two runs produce byte-identical traces — the CI chaos jobs
// print it on failure so any violation is reproducible locally from the
// seed.
type Trace struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// Logf appends one timestamped line.
func (t *Trace) Logf(at time.Duration, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(&t.buf, "[%12s] ", at)
	fmt.Fprintf(&t.buf, format, args...)
	t.buf.WriteByte('\n')
}

// String returns the trace so far.
func (t *Trace) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.String()
}

// Len returns the trace length in bytes.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.Len()
}

// ---------------------------------------------------------------------------
// WAL tail analysis (format-level, store-independent).

// DamageWALTail applies one torn-tail mode to the WAL file at path, between
// a simulated crash and the subsequent store reopen. TornAppend models power
// loss mid-write of an unacknowledged record (arg garbage bytes, default 8);
// TornLastBoundary discards any partial tail; TornLastRecord truncates one
// byte into the final complete record, destroying an acknowledged write. A
// missing file is a no-op (the node crashed before its first write).
func DamageWALTail(path string, torn int, arg int64) error {
	if torn == TornNone {
		return nil
	}
	wal, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	switch torn {
	case TornAppend:
		n := arg
		if n <= 0 {
			n = 8
		}
		garbage := make([]byte, n)
		for i := range garbage {
			garbage[i] = 0xA5
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(garbage); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	case TornLastBoundary, TornLastRecord:
		pts := TornTailPoints(wal)
		end := pts[len(pts)-1]
		if torn == TornLastRecord && end > 0 {
			end--
		}
		return os.Truncate(path, end)
	}
	return fmt.Errorf("faults: unknown torn mode %d", torn)
}

// TornTailPoints walks a CRC-framed WAL image (8-byte headers: 4-byte CRC,
// 4-byte little-endian body length) and returns every record boundary
// offset in ascending order, starting with 0. The last element is the end of
// the final complete record — anything past it is a torn tail. The walk is
// structural (lengths only, no CRC verification), matching how
// internal/store frames its WAL; fuzz corpora and torn-tail schedules are
// generated from these points (every boundary, +-1 byte).
func TornTailPoints(wal []byte) []int64 {
	points := []int64{0}
	off := int64(0)
	for {
		if off+8 > int64(len(wal)) {
			break
		}
		n := binary.LittleEndian.Uint32(wal[off+4:])
		if n > 1<<30 || off+8+int64(n) > int64(len(wal)) {
			break
		}
		off += 8 + int64(n)
		points = append(points, off)
	}
	return points
}
