// Package queue provides the max-heap priority queue used by the synthesis
// search (Section IV-C: "A priority queue, implemented as a max heap, is
// utilized to determine which node is processed next").
//
// Ties are broken by insertion order (FIFO), which keeps the search
// deterministic — important both for reproducing runs and for matching the
// behaviour of a sequential C implementation.
package queue

import (
	"math"
	"sort"
)

// Queue is a max-heap of values with float64 priorities. The zero value is
// an empty queue ready for use.
type Queue[T any] struct {
	items []entry[T]
	seq   uint32 // insertion number of the next Push
}

// entry is one queued value. With a 4-byte value (the search's int32 arena
// slots) it is 16 bytes: the insertion number is 32-bit, and Push renumbers
// the queue before it would wrap (see renumber).
type entry[T any] struct {
	priority float64
	seq      uint32
	value    T
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Clear discards all queued items (used by the restart heuristic).
func (q *Queue[T]) Clear() {
	q.items = q.items[:0]
}

// PruneTo keeps only the k highest-precedence items, discarding the rest.
// The search uses it to bound memory on large functions. A descending-sorted
// array satisfies the max-heap property, so the rebuild is a sort.
func (q *Queue[T]) PruneTo(k int) {
	q.PruneToFunc(k, nil)
}

// PruneToFunc is PruneTo with a callback: discard, if non-nil, is invoked
// once for every dropped item before its slot is released. The search uses
// it to un-register pruned nodes from its transposition table (a pruned
// node was never expanded, so leaving it marked as visited could block the
// only path to an unexplored state) and to recycle their allocations.
func (q *Queue[T]) PruneToFunc(k int, discard func(T)) {
	if len(q.items) <= k {
		return
	}
	sortEntries(q.items)
	tail := q.items[k:]
	for i := range tail {
		if discard != nil {
			discard(tail[i].value)
		}
		tail[i] = entry[T]{}
	}
	q.items = q.items[:k]
}

// sortEntries sorts descending by precedence (priority, then insertion
// order).
func sortEntries[T any](items []entry[T]) {
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.priority != b.priority {
			return a.priority > b.priority
		}
		return a.seq < b.seq
	})
}

// Push inserts v with the given priority.
func (q *Queue[T]) Push(v T, priority float64) {
	if q.seq == math.MaxUint32 {
		q.renumber()
	}
	q.items = append(q.items, entry[T]{priority: priority, seq: q.seq, value: v})
	q.seq++
	q.up(len(q.items) - 1)
}

// renumber keeps FIFO tie-breaking exact when the 32-bit insertion counter
// runs out, which a long search does (a 500-million-step run pushes more
// than 2^32 nodes): it sorts the entries by precedence and numbers them
// 0…len−1 in that order, so every queued entry keeps its rank and every
// later Push numbers above all of them. The sorted array is a valid heap.
func (q *Queue[T]) renumber() {
	sortEntries(q.items)
	for i := range q.items {
		q.items[i].seq = uint32(i)
	}
	q.seq = uint32(len(q.items))
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

// Each calls f for every queued item and its priority, in unspecified
// (heap-array) order. The search uses it to rebuild memory accounting after
// a prune.
func (q *Queue[T]) Each(f func(v T, priority float64)) {
	for i := range q.items {
		f(q.items[i].value, q.items[i].priority)
	}
}

// Ordered calls f for every queued item in precedence order: highest
// priority first, FIFO among ties — exactly the order Pop would drain them.
// It sorts the backing array in place, which is safe mid-search because a
// descending-sorted array satisfies the max-heap property (the same fact
// PruneTo relies on). The snapshot subsystem uses it to serialize the queue
// so that a rebuilt queue, re-Pushed in this order, pops identically.
func (q *Queue[T]) Ordered(f func(T)) {
	sortEntries(q.items)
	for i := range q.items {
		f(q.items[i].value)
	}
}

// less reports whether item i has strictly higher precedence than item j:
// higher priority, or equal priority and earlier insertion.
func (q *Queue[T]) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		best := i
		if l := 2*i + 1; l < n && q.less(l, best) {
			best = l
		}
		if r := 2*i + 2; r < n && q.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		q.items[i], q.items[best] = q.items[best], q.items[i]
		i = best
	}
}
