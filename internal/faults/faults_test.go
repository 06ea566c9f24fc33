package faults

import (
	"encoding/binary"
	"testing"
	"time"

	"clanbft/internal/simnet"
	"clanbft/internal/types"
)

func msg(seq uint64) types.Message {
	return &types.BcastMsg{K: types.KindBEcho, Sender: 0, Seq: seq, HasData: true, Data: []byte("x")}
}

// wrapAll wraps every simnet endpoint and returns the wrappers plus per-node
// receive counters.
func wrapAll(t *testing.T, net *simnet.Net, f *Net, n int) ([]*Endpoint, []int) {
	t.Helper()
	eps := make([]*Endpoint, n)
	recv := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		eps[i] = f.Wrap(net.Endpoint(types.NodeID(i)), net.Clock(types.NodeID(i)))
		eps[i].SetHandler(func(from types.NodeID, m types.Message) { recv[i]++ })
	}
	return eps, recv
}

func TestDropRuleAndAccounting(t *testing.T) {
	net := simnet.New(simnet.Config{N: 2, JitterPct: -1})
	f := NewNet(2, 1, nil)
	eps, recv := wrapAll(t, net, f, 2)

	f.Apply(0, Event{Kind: KindDrop, From: 0, To: 1, P: 1})
	for i := 0; i < 10; i++ {
		eps[0].Send(1, msg(uint64(i)))
	}
	net.Run(time.Second)
	if recv[1] != 0 {
		t.Fatalf("got %d deliveries through a p=1 drop link", recv[1])
	}
	if fs := eps[0].FaultStats(); fs.Dropped != 10 {
		t.Fatalf("Dropped = %d, want 10", fs.Dropped)
	}
	if st := eps[0].Stats(); st.MsgsDropped != 10 {
		t.Fatalf("Stats().MsgsDropped = %d, want 10", st.MsgsDropped)
	}

	// Clearing the rule (P=0) restores delivery.
	f.Apply(0, Event{Kind: KindDrop, From: 0, To: 1, P: 0})
	eps[0].Send(1, msg(99))
	net.Run(time.Second)
	if recv[1] != 1 {
		t.Fatalf("recv = %d after clearing rule, want 1", recv[1])
	}

	// A Match narrows the rule to the messages it accepts.
	f.Apply(0, Event{Kind: KindDrop, From: 0, To: 1, P: 1, Match: func(m types.Message) bool {
		return m.(*types.BcastMsg).Seq%2 == 0
	}})
	for i := 0; i < 10; i++ {
		eps[0].Send(1, msg(uint64(i)))
	}
	net.Run(time.Second)
	if recv[1] != 6 {
		t.Fatalf("recv = %d under an even-seq drop, want 1+5", recv[1])
	}
}

func TestDupAndDelay(t *testing.T) {
	net := simnet.New(simnet.Config{N: 2, JitterPct: -1})
	f := NewNet(2, 1, nil)
	eps, recv := wrapAll(t, net, f, 2)

	f.Apply(0, Event{Kind: KindDup, From: 0, To: 1, P: 1})
	eps[0].Send(1, msg(1))
	net.Run(time.Second)
	if recv[1] != 2 {
		t.Fatalf("recv = %d through a p=1 dup link, want 2", recv[1])
	}
	if fs := eps[0].FaultStats(); fs.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", fs.Duplicated)
	}

	// A fixed delay defers delivery past the configured duration.
	f.Apply(0, Event{Kind: KindDup, From: 0, To: 1, P: 0})
	f.Apply(0, Event{Kind: KindDelay, From: 0, To: 1, Delay: 500 * time.Millisecond})
	eps[0].Send(1, msg(2))
	net.Run(400 * time.Millisecond)
	if recv[1] != 2 {
		t.Fatalf("delayed message arrived early (recv=%d)", recv[1])
	}
	net.Run(time.Second)
	if recv[1] != 3 {
		t.Fatalf("delayed message never arrived (recv=%d)", recv[1])
	}
	if fs := eps[0].FaultStats(); fs.Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", fs.Delayed)
	}
}

func TestPartitionHealAndWildcard(t *testing.T) {
	const n = 4
	net := simnet.New(simnet.Config{N: n, JitterPct: -1})
	f := NewNet(n, 1, nil)
	eps, recv := wrapAll(t, net, f, n)

	f.Apply(0, Event{Kind: KindPartition, Name: "split", Groups: [][]types.NodeID{{0, 1}, {2, 3}}})
	eps[0].Send(2, msg(1)) // severed
	eps[0].Send(1, msg(2)) // same side
	eps[2].Send(3, msg(3)) // same side
	net.Run(time.Second)
	if recv[2] != 0 || recv[1] != 1 || recv[3] != 1 {
		t.Fatalf("partition leak: recv = %v", recv)
	}

	f.Apply(0, Event{Kind: KindHeal, Name: "split"})
	eps[0].Send(2, msg(4))
	net.Run(time.Second)
	if recv[2] != 1 {
		t.Fatalf("healed link still severed: recv = %v", recv)
	}

	// Wildcard drop: everything out of node 3 vanishes.
	f.Apply(0, Event{Kind: KindDrop, From: 3, To: All, P: 1})
	eps[3].Broadcast(msg(5))
	net.Run(time.Second)
	if recv[0] != 0 || recv[1] != 1 || recv[2] != 1 {
		t.Fatalf("wildcard drop leak: recv = %v", recv)
	}
	if recv[3] != 2 { // self-delivery bypasses fault injection
		t.Fatalf("self-delivery was fault-injected: recv = %v", recv)
	}
}

func TestCrashGatesBothDirections(t *testing.T) {
	net := simnet.New(simnet.Config{N: 2, JitterPct: -1})
	f := NewNet(2, 1, nil)
	eps, recv := wrapAll(t, net, f, 2)

	f.SetCrashed(1, true)
	eps[0].Send(1, msg(1)) // toward crashed node: dropped at sender
	eps[1].Send(0, msg(2)) // from crashed node: dropped at sender
	net.Run(time.Second)
	if recv[0] != 0 || recv[1] != 0 {
		t.Fatalf("crashed node exchanged traffic: recv = %v", recv)
	}
	if fs := eps[0].FaultStats(); fs.Dropped != 1 {
		t.Fatalf("sender toward crashed node: Dropped = %d, want 1", fs.Dropped)
	}

	// In-flight messages are suppressed by the receive gate even if the
	// crash lands after the send decision.
	f.SetCrashed(1, false)
	eps[0].Send(1, msg(3))
	f.SetCrashed(1, true)
	net.Run(time.Second)
	if recv[1] != 0 {
		t.Fatalf("in-flight message delivered to crashed node")
	}

	f.SetCrashed(1, false)
	eps[0].Send(1, msg(4))
	net.Run(time.Second)
	if recv[1] != 1 {
		t.Fatalf("restarted node unreachable: recv = %v", recv)
	}
}

func TestJudgeDeterminism(t *testing.T) {
	run := func() []verdict {
		f := NewNet(3, 42, nil)
		f.Apply(0, Event{Kind: KindDrop, From: 0, To: 1, P: 0.5})
		f.Apply(0, Event{Kind: KindDup, From: 0, To: 1, P: 0.3})
		f.Apply(0, Event{Kind: KindReorder, From: 0, To: 2, Delay: time.Millisecond})
		var out []verdict
		for i := 0; i < 200; i++ {
			out = append(out, f.judge(0, 1, nil), f.judge(0, 2, nil))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDriveOrderAndTrace(t *testing.T) {
	net := simnet.New(simnet.Config{N: 2, JitterPct: -1})
	f := NewNet(2, 1, nil)
	sched := Schedule{Seed: 1, Events: []Event{
		// Deliberately unsorted; Drive must fire them in time order.
		{At: 2 * time.Second, Kind: KindHeal},
		{At: time.Second, Kind: KindDrop, From: 0, To: 1, P: 1},
	}}
	Drive(sched, net.Clock(0), f, Hooks{})
	net.Run(3 * time.Second)
	got := f.Trace().String()
	want := "[          1s] drop link 0->1 p=1.000 delay=0s\n[          2s] heal all\n"
	if got != want {
		t.Fatalf("trace mismatch:\ngot:  %q\nwant: %q", got, want)
	}
}

func TestTornTailPoints(t *testing.T) {
	rec := func(body int) []byte {
		b := make([]byte, 8+body)
		binary.LittleEndian.PutUint32(b[4:], uint32(body))
		return b
	}
	var wal []byte
	wal = append(wal, rec(5)...)
	wal = append(wal, rec(0)...)
	wal = append(wal, rec(17)...)
	full := len(wal)
	wal = append(wal, rec(100)[:12]...) // torn tail: header + 4 of 100 bytes

	got := TornTailPoints(wal)
	want := []int64{0, 13, 21, int64(full)}
	if len(got) != len(want) {
		t.Fatalf("points = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("points = %v, want %v", got, want)
		}
	}
	if pts := TornTailPoints(nil); len(pts) != 1 || pts[0] != 0 {
		t.Fatalf("empty WAL points = %v", pts)
	}
}
