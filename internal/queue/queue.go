// Package queue provides the max-heap priority queue (4-ary) used by the
// synthesis search (Section IV-C: "A priority queue, implemented as a max
// heap, is utilized to determine which node is processed next").
//
// Every entry carries a 64-bit ID from its caller, and ties are broken by
// it: among equal priorities the lower ID pops first. The search passes
// node IDs, which it hands out in creation order, so ties pop first in
// first out, which keeps the search deterministic — important both for
// reproducing runs and for matching the behaviour of a sequential C
// implementation. Because (priority, ID) is a strict total order when the
// IDs are unique, the pop order is fixed by the pushed entries alone,
// whatever the heap's arity or array layout.
//
// That fact is what lets the search queue one entry per expanded parent
// instead of one per child (partial expansion, see internal/core's
// frontier): an entry keyed by a parent's best waiting child is re-keyed
// in place with ReplaceTop when that child leaves, and a copy of the heap
// (Map) popped the same way lists every child in pop order.
//
// The heap is 4-ary: the children of index i are 4i+1…4i+4. A shallower
// tree halves the levels a push climbs, and the four children of a node
// share two or three cache lines of 24-byte entries, so a pop's extra
// comparisons per level cost less than the levels it saves. Both sifts
// carry the moving entry and write it once, into the hole they stop at.
package queue

// Queue is a max-heap of values with float64 priorities. The zero value is
// an empty queue ready for use.
type Queue[T any] struct {
	items []entry[T]
}

// entry is one queued value. With a 4-byte value (the search's int32 arena
// slots) it is 24 bytes.
type entry[T any] struct {
	priority float64
	id       uint64
	value    T
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// arity is the heap's branching factor; see parent and firstChild.
const arity = 4

// parent is the index of item i's parent (i > 0).
func parent(i int) int { return (i - 1) / arity }

// firstChild is the index of item i's first child; its children are
// firstChild(i) … firstChild(i)+arity−1, those below the length.
func firstChild(i int) int { return arity*i + 1 }

// before reports whether a has strictly higher precedence than b: higher
// priority, or equal priority and a lower ID.
func before[T any](a, b *entry[T]) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.id < b.id
}

// Clear discards all queued items (used by the restart heuristic).
func (q *Queue[T]) Clear() {
	q.items = q.items[:0]
}

// PushSeq inserts v with the given priority under the caller's ID: among
// equal priorities, lower IDs pop first. The caller keeps the IDs of queued
// entries unique.
func (q *Queue[T]) PushSeq(v T, priority float64, id uint64) {
	q.items = append(q.items, entry[T]{priority: priority, id: id, value: v})
	q.up(len(q.items) - 1)
}

// Map returns a queue of f(v) for every value v in q, each under v's key.
// It allocates one array of q.Len() entries and keeps q's layout, which is
// then a valid heap as it stands.
func Map[T, U any](q *Queue[T], f func(T) U) Queue[U] {
	m := Queue[U]{items: make([]entry[U], len(q.items))}
	for i := range q.items {
		e := &q.items[i]
		m.items[i] = entry[U]{priority: e.priority, id: e.id, value: f(e.value)}
	}
	return m
}

// Top returns the highest-precedence item with its priority and ID. The
// queue must not be empty.
func (q *Queue[T]) Top() (v T, priority float64, id uint64) {
	e := &q.items[0]
	return e.value, e.priority, e.id
}

// ReplaceTop replaces the highest-priority item with v under a new
// priority and ID and restores the heap — one sift down instead of a Pop
// and a PushSeq. The queue must not be empty.
func (q *Queue[T]) ReplaceTop(v T, priority float64, id uint64) {
	q.items[0] = entry[T]{priority: priority, id: id, value: v}
	q.down(0)
}

// Pop removes and returns the highest-priority item. The boolean is false
// when the queue is empty.
func (q *Queue[T]) Pop() (T, bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	top := q.items[0].value
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = entry[T]{} // release reference
	q.items = q.items[:last]
	if len(q.items) > 0 {
		q.down(0)
	}
	return top, true
}

// up moves the entry at index i toward the root until its parent has
// precedence over it.
func (q *Queue[T]) up(i int) {
	items := q.items
	e := items[i]
	for i > 0 {
		p := parent(i)
		if !before(&e, &items[p]) {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = e
}

// down moves the entry at index i toward the leaves until it has
// precedence over all its children.
func (q *Queue[T]) down(i int) {
	items := q.items
	n := len(items)
	e := items[i]
	for {
		c := firstChild(i)
		if c >= n {
			break
		}
		best := c
		for k, end := c+1, min(c+arity, n); k < end; k++ {
			if before(&items[k], &items[best]) {
				best = k
			}
		}
		if !before(&items[best], &e) {
			break
		}
		items[i] = items[best]
		i = best
	}
	items[i] = e
}
