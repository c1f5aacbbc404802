// Package queue provides the max-heap priority queue (4-ary) used by the
// synthesis search (Section IV-C: "A priority queue, implemented as a max
// heap, is utilized to determine which node is processed next").
//
// Ties are broken by insertion order (FIFO), which keeps the search
// deterministic — important both for reproducing runs and for matching the
// behaviour of a sequential C implementation. Because (priority, insertion)
// is a strict total order, the pop order is fixed by the pushed entries
// alone, whatever the heap's arity or array layout.
//
// That fact is what lets the search queue one entry per expanded parent
// instead of one per child (partial expansion, see internal/core's
// frontier): the caller numbers the children itself and pushes with
// PushSeq, and an entry keyed by a parent's best waiting child is re-keyed
// in place with ReplaceTop when that child leaves. Entries numbered by the
// caller and by Push must not be mixed in one queue.
//
// The heap is 4-ary: the children of index i are 4i+1…4i+4. A shallower
// tree halves the levels a push climbs, and the four children of a node
// share one or two cache lines of 16-byte entries, so a pop's extra
// comparisons per level cost less than the levels it saves. Both sifts
// carry the moving entry and write it once, into the hole they stop at.
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

// arity is the heap's branching factor; see parent and firstChild.
const arity = 4

// parent is the index of item i's parent (i > 0).
func parent(i int) int { return (i - 1) / arity }

// firstChild is the index of item i's first child; its children are
// firstChild(i) … firstChild(i)+arity−1, those below the length.
func firstChild(i int) int { return arity*i + 1 }

// before reports whether a has strictly higher precedence than b: higher
// priority, or equal priority and earlier insertion.
func before[T any](a, b *entry[T]) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

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
	sort.Slice(items, func(i, j int) bool { return before(&items[i], &items[j]) })
}

// Push inserts v with the given priority.
func (q *Queue[T]) Push(v T, priority float64) {
	if q.seq == math.MaxUint32 {
		q.renumber()
	}
	q.PushSeq(v, priority, q.seq)
	q.seq++
}

// PushSeq inserts v with the given priority under the caller's insertion
// number seq: among equal priorities, lower numbers pop first. A caller
// that numbers its own entries keeps the numbers unique and renumbers them
// itself before its counter wraps.
func (q *Queue[T]) PushSeq(v T, priority float64, seq uint32) {
	q.items = append(q.items, entry[T]{priority: priority, seq: seq, value: v})
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

// Peek returns the highest-priority item without removing it. The boolean
// is false when the queue is empty.
func (q *Queue[T]) Peek() (T, bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	return q.items[0].value, true
}

// ReplaceTop gives the highest-priority item a new priority and insertion
// number and restores the heap — one sift down instead of a Pop and a
// PushSeq. The queue must not be empty.
func (q *Queue[T]) ReplaceTop(priority float64, seq uint32) {
	q.items[0].priority, q.items[0].seq = priority, seq
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

// Each calls f for every queued item with its priority and insertion
// number, in unspecified (heap-array) order.
func (q *Queue[T]) Each(f func(v T, priority float64, seq uint32)) {
	for i := range q.items {
		f(q.items[i].value, q.items[i].priority, q.items[i].seq)
	}
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
