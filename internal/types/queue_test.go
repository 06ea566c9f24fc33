package types

import "testing"

// TestQueueReleasesCapacityAfterDrain: a full drain rewinds onto the same
// array while it is within queueRetainBytes, and releases a burst-sized one
// instead of pinning it for the owner's life.
func TestQueueReleasesCapacityAfterDrain(t *testing.T) {
	var q Queue[[]byte]
	for i := 0; i < 1000; i++ {
		q.Push([]byte{byte(i)})
	}
	kept := &q.items[0]
	q.Drop(1000)
	if q.Len() != 0 || q.head != 0 || cap(q.items) == 0 || &q.items[:1][0] != kept {
		t.Fatalf("a drained queue of cap %d did not rewind onto its array", cap(q.items))
	}
	for i := 0; i < 5000; i++ {
		q.Push([]byte{byte(i)})
	}
	for q.Len() > 0 {
		q.Drop(min(64, q.Len()))
	}
	if q.items != nil || q.head != 0 {
		t.Fatalf("drained burst retains cap %d, head %d", cap(q.items), q.head)
	}
}

// TestQueueDropZeroesSlots: every dropped slot is cleared, so what it held is
// collectable while the rest of the queue is still live.
func TestQueueDropZeroesSlots(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 6; i++ {
		q.Push(&i)
	}
	q.Drop(3)
	for i, p := range q.items[:q.head] {
		if p != nil {
			t.Fatalf("dropped slot %d still references its value", i)
		}
	}
	if q.Len() != 3 || *q.Front(3)[0] != 3 {
		t.Fatalf("Len %d after dropping 3 of 6", q.Len())
	}
}

// TestQueueCompactionSlidesLiveRegion: once a dead prefix of queueCompactAt
// slots or more outnumbers the live ones, the live region slides down and
// the vacated tail is zeroed.
func TestQueueCompactionSlidesLiveRegion(t *testing.T) {
	var q Queue[*int]
	total := queueCompactAt*2 + 10
	for i := 0; i < total; i++ {
		q.Push(&i)
	}
	drops := total/2 + 1 // the first drop whose dead prefix outnumbers the live
	for i := 0; i < drops; i++ {
		q.Drop(1)
	}
	if q.head != 0 || q.Len() != total-drops {
		t.Fatalf("head %d, Len %d after compaction, want 0, %d", q.head, q.Len(), total-drops)
	}
	for i, p := range q.items[q.Len():cap(q.items)] {
		if p != nil {
			t.Fatalf("vacated slot %d still references its value", q.Len()+i)
		}
	}
	if got := *q.Front(1)[0]; got != drops {
		t.Fatalf("front after compaction is %d, want %d", got, drops)
	}
}
