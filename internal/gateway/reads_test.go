package gateway

import (
	"sync/atomic"
	"testing"
	"time"
)

// mapReader is a fixed-state responder.
type mapReader struct {
	vals map[string]string
	vers map[string]uint64
	// delay simulates a slow replica.
	delay time.Duration
	calls atomic.Int64
}

func (m *mapReader) ReadKey(key []byte) ([]byte, uint64, bool) {
	m.calls.Add(1)
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	v, ok := m.vals[string(key)]
	if !ok {
		return nil, 0, false
	}
	return []byte(v), m.vers[string(key)], true
}

func fresh(val string, ver uint64) *mapReader {
	return &mapReader{vals: map[string]string{"k": val}, vers: map[string]uint64{"k": ver}}
}

func TestReadQuorumAgreement(t *testing.T) {
	cfg := ReadConfig{
		Responders: []StateReader{fresh("v", 7), fresh("v", 7), fresh("v", 7)},
		FaultBound: 1,
	}
	res := aggregateRead(cfg, []byte("k"))
	if res.errCode != 0 || !res.found || string(res.value) != "v" || res.version != 7 || res.quorum < 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReadQuorumWithOneStaleResponder(t *testing.T) {
	// One replica lags a version behind (same key, older value). f_c=1
	// needs 2 matching; the two fresh replicas form the quorum, and the
	// stale one cannot poison the answer.
	cfg := ReadConfig{
		Responders: []StateReader{fresh("new", 9), fresh("old", 8), fresh("new", 9)},
		FaultBound: 1,
	}
	res := aggregateRead(cfg, []byte("k"))
	if res.errCode != 0 || string(res.value) != "new" || res.version != 9 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReadStaleEqualBytesRejectedByVersion(t *testing.T) {
	// A stale replica holding byte-identical data from an OLDER write must
	// not count toward the quorum: matching is on (version, value), not
	// value alone.
	cfg := ReadConfig{
		Responders: []StateReader{fresh("same", 9), fresh("same", 3), fresh("same", 9)},
		FaultBound: 1,
	}
	res := aggregateRead(cfg, []byte("k"))
	if res.errCode != 0 || res.version != 9 || res.quorum != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReadNoQuorumWhenSplit(t *testing.T) {
	cfg := ReadConfig{
		Responders: []StateReader{fresh("a", 1), fresh("b", 2), fresh("c", 3)},
		FaultBound: 1,
		Timeout:    50 * time.Millisecond,
	}
	res := aggregateRead(cfg, []byte("k"))
	if res.errCode != ReadNoQuorum {
		t.Fatalf("errCode = %d, want ReadNoQuorum", res.errCode)
	}
}

func TestReadAbsentKeyQuorum(t *testing.T) {
	cfg := ReadConfig{
		Responders: []StateReader{fresh("v", 1), fresh("v", 1), fresh("v", 1)},
		FaultBound: 1,
	}
	res := aggregateRead(cfg, []byte("missing"))
	if res.errCode != 0 || res.found {
		t.Fatalf("res = %+v, want found=false quorum answer", res)
	}
}

func TestReadTimeoutWhenQuorumUnreachable(t *testing.T) {
	slow := fresh("v", 1)
	slow.delay = 2 * time.Second
	slow2 := fresh("v", 1)
	slow2.delay = 2 * time.Second
	cfg := ReadConfig{
		Responders: []StateReader{fresh("v", 1), slow, slow2},
		FaultBound: 1,
		Timeout:    100 * time.Millisecond,
	}
	start := time.Now()
	res := aggregateRead(cfg, []byte("k"))
	if res.errCode != ReadTimeout {
		t.Fatalf("errCode = %d, want ReadTimeout", res.errCode)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("timeout not respected: %v", time.Since(start))
	}
}

func TestReadQuorumShortCircuitsSlowReplica(t *testing.T) {
	slow := fresh("v", 1)
	slow.delay = 2 * time.Second
	cfg := ReadConfig{
		Responders: []StateReader{fresh("v", 1), fresh("v", 1), slow},
		FaultBound: 1,
		Timeout:    5 * time.Second,
	}
	start := time.Now()
	res := aggregateRead(cfg, []byte("k"))
	if res.errCode != 0 || res.quorum != 2 {
		t.Fatalf("res = %+v", res)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("quorum waited for the slow replica: %v", time.Since(start))
	}
}

func TestReadInsufficientResponders(t *testing.T) {
	cfg := ReadConfig{Responders: []StateReader{fresh("v", 1)}, FaultBound: 1}
	if res := aggregateRead(cfg, []byte("k")); res.errCode != ReadNoQuorum {
		t.Fatalf("res = %+v, want ReadNoQuorum", res)
	}
}

func TestAdmitterDeterministicVirtualTime(t *testing.T) {
	a := NewAdmitter(Limits{ClientRate: 10, ClientBurst: 5})
	now := int64(1_000_000_000)
	admits := 0
	for i := 0; i < 20; i++ {
		if a.TryAdmit(1, now) {
			admits++
		}
	}
	if admits != 5 {
		t.Fatalf("burst admits = %d, want 5", admits)
	}
	// 10 tokens/s: +500ms refills 5 tokens.
	now += 500 * int64(time.Millisecond)
	admits = 0
	for i := 0; i < 20; i++ {
		if a.TryAdmit(1, now) {
			admits++
		}
	}
	if admits != 5 {
		t.Fatalf("refill admits = %d, want 5", admits)
	}
	// Another client is unaffected.
	if !a.TryAdmit(2, now) {
		t.Fatal("fresh client denied")
	}
}

func TestAdmitterEvictionBound(t *testing.T) {
	a := NewAdmitter(Limits{ClientRate: 1e6, MaxClients: admitShards * 4})
	now := int64(1)
	for c := uint64(0); c < admitShards*100; c++ {
		a.TryAdmit(c, now)
	}
	if got, max := a.Clients(), admitShards*4; got > max {
		t.Fatalf("tracked clients = %d, want <= %d", got, max)
	}
}
