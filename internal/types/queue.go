package types

import "unsafe"

// Queue is a FIFO over one array: Push appends, Drop advances a head index
// past the oldest values and zeroes their slots, so whatever they pointed to
// is collectable at once. A full drain rewinds onto the same array, unless
// the array is over queueRetainBytes — then it is released, so a burst's
// peak is not pinned for the owner's life. A dead prefix of queueCompactAt
// slots or more that outnumbers the live ones is slid out, so a backlog that
// never quite drains holds at most about twice its live slots. The zero
// Queue is empty and ready to use; it is not safe for concurrent use.
type Queue[T any] struct {
	items []T // live region is items[head:]
	head  int
}

const (
	queueRetainBytes = 32 << 10
	queueCompactAt   = 1024
)

// Push appends v at the back.
func (q *Queue[T]) Push(v T) { q.items = append(q.items, v) }

// Len returns the number of live values.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Cap returns the capacity of the array the queue holds (0 once released).
func (q *Queue[T]) Cap() int { return cap(q.items) }

// Front returns the oldest n live values, oldest first. The slice aliases the
// queue: it is valid until the next Push or Drop.
func (q *Queue[T]) Front(n int) []T { return q.items[q.head : q.head+n] }

// Drop removes the oldest n live values.
func (q *Queue[T]) Drop(n int) {
	clear(q.items[q.head : q.head+n])
	q.head += n
	switch {
	case q.head == len(q.items):
		var zero T
		if uintptr(cap(q.items))*unsafe.Sizeof(zero) > queueRetainBytes {
			q.items = nil
		} else {
			q.items = q.items[:0]
		}
		q.head = 0
	case q.head >= queueCompactAt && q.head > q.Len():
		live := copy(q.items, q.items[q.head:])
		clear(q.items[live:])
		q.items, q.head = q.items[:live], 0
	}
}
