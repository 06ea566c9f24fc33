package core

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"clanbft/internal/order"
	"clanbft/internal/types"
)

// goldenEpochRecord is the stored record of an epoch of five members, one of
// which joined at its fence, recorded before the record's decoder moved onto
// types.Reader.
const goldenEpochRecord = "ac02a20205000102030901090d31302e302e302e393a37303030"

// TestGoldenEpochRecord pins the bytes of a stored epoch record and checks
// that it decodes to what encoded it.
func TestGoldenEpochRecord(t *testing.T) {
	es := &epochState{
		Epoch:      order.Epoch{Num: 2, Start: 300, Members: []types.NodeID{0, 1, 2, 3, 9}},
		schedRound: 290,
		joins:      map[types.NodeID]string{9: "10.0.0.9:7000"},
	}
	enc := marshalEpochRecord(es)
	if got := hex.EncodeToString(enc); got != goldenEpochRecord {
		t.Errorf("epoch record changed:\n got %s\nwant %s", got, goldenEpochRecord)
	}
	start, sched, members, joins, ok := unmarshalEpochRecord(enc)
	if !ok || start != es.Start || sched != es.schedRound ||
		!reflect.DeepEqual(members, es.Members) || !reflect.DeepEqual(joins, es.joins) {
		t.Fatalf("epoch record decodes to start %d sched %d members %v joins %v (ok %v)", start, sched, members, joins, ok)
	}
	back := &epochState{Epoch: order.Epoch{Start: start, Members: members}, schedRound: sched, joins: joins}
	if !bytes.Equal(marshalEpochRecord(back), enc) {
		t.Fatal("the decoded epoch record encodes differently")
	}
}

// TestEpochRecordCountsBounded: a record reaches a joiner inside a donor's
// snapshot, so its counts are the sender's to choose. A record that declares
// more members or joins than it has bytes for is rejected, never sized after
// the declared count.
func TestEpochRecordCountsBounded(t *testing.T) {
	head := types.PutUvarint(types.PutUvarint(nil, 300), 290)
	for name, rec := range map[string][]byte{
		"1<<62 members":         types.PutUvarint(append([]byte(nil), head...), 1<<62),
		"members past the end":  append(types.PutUvarint(append([]byte(nil), head...), 3), 0, 1),
		"1<<62 joins":           types.PutUvarint(append(types.PutUvarint(append([]byte(nil), head...), 1), 0), 1<<62),
		"address past the end":  append(types.PutUvarint(append([]byte(nil), head...), 0), 1, 9, 5, 'a'),
		"one byte past the end": append(marshalEpochRecord(&epochState{Epoch: order.Epoch{Start: 300, Members: []types.NodeID{0}}}), 0),
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic: %v", name, r)
				}
			}()
			if _, _, members, _, ok := unmarshalEpochRecord(rec); ok {
				t.Errorf("%s: decoded, %d members", name, len(members))
			}
		}()
	}
}
