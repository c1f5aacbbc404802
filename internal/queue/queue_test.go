package queue

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

func TestEmpty(t *testing.T) {
	var q Queue[int]
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue should report !ok")
	}
	if q.Len() != 0 {
		t.Error("empty queue has nonzero Len")
	}
}

func TestMaxHeapOrder(t *testing.T) {
	var q Queue[string]
	q.PushSeq("low", 1, 0)
	q.PushSeq("high", 10, 1)
	q.PushSeq("mid", 5, 2)
	for _, want := range []string{"high", "mid", "low"} {
		got, ok := q.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %q (%v), want %q", got, ok, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.PushSeq(i, 7.0, uint64(i))
	}
	for i := 0; i < 100; i++ {
		got, _ := q.Pop()
		if got != i {
			t.Fatalf("equal-priority pop %d = %d, want insertion order", i, got)
		}
	}
}

// TestRandomizedAgainstSort checks pop order against a stable sort by
// (priority descending, insertion), first for push-then-drain queues and
// then for interleaved operation sequences.
func TestRandomizedAgainstSort(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		var q Queue[int]
		n := 200 + src.Intn(300)
		prios := make([]float64, n)
		for i := range prios {
			prios[i] = float64(src.Intn(50)) // many ties
			q.PushSeq(i, prios[i], uint64(i))
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return prios[idx[a]] > prios[idx[b]] })
		for i := 0; i < n; i++ {
			got, ok := q.Pop()
			if !ok || got != idx[i] {
				t.Fatalf("trial %d pos %d: got %d, want %d", trial, i, got, idx[i])
			}
		}
	}

	// Interleaved Push and Pop under heavy priority ties, starting from
	// queues whose sizes sit on and around every 4-ary level boundary (1,
	// 5, 21, 85 and 341 items fill the first one to five levels exactly).
	// Every pop must return the model's next item — the first of a stable
	// sort by (priority descending, insertion).
	type item struct {
		v        int
		priority float64
	}
	src = rng.New(23)
	// model is kept in precedence order: a stable sort by descending
	// priority of the items in insertion order.
	var model []item
	insert := func(it item) {
		j := len(model)
		for j > 0 && model[j-1].priority < it.priority {
			j--
		}
		model = slices.Insert(model, j, it)
	}
	for _, size := range []int{1, 4, 5, 6, 20, 21, 22, 84, 85, 86, 340, 341, 342} {
		var q Queue[int]
		model = model[:0]
		next := 0
		push := func() {
			it := item{v: next, priority: float64(src.Intn(3))} // three values: heavy ties
			next++
			q.PushSeq(it.v, it.priority, uint64(it.v))
			insert(it)
		}
		for range size {
			push()
		}
		checkHeap(t, &q, fmt.Sprintf("size %d after the initial pushes", size))
		for op := 0; op < 3*size+20; op++ {
			if src.Intn(19) < 9 {
				push()
			} else {
				got, ok := q.Pop()
				if len(model) == 0 {
					if ok {
						t.Fatalf("size %d op %d: Pop on an empty queue returned %d", size, op, got)
					}
					continue
				}
				if want := model[0].v; !ok || got != want {
					t.Fatalf("size %d op %d: Pop = %d (%v), want %d", size, op, got, ok, want)
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				t.Fatalf("size %d op %d: Len = %d, model holds %d", size, op, q.Len(), len(model))
			}
			checkHeap(t, &q, fmt.Sprintf("size %d op %d", size, op))
		}
		for len(model) > 0 {
			if got, ok := q.Pop(); !ok || got != model[0].v {
				t.Fatalf("size %d drain: Pop = %d (%v), want %d", size, got, ok, model[0].v)
			}
			model = model[1:]
		}
		if _, ok := q.Pop(); ok {
			t.Fatalf("size %d: queue not empty after the model drained", size)
		}
	}
}

func TestClear(t *testing.T) {
	var q Queue[int]
	q.PushSeq(1, 1, 0)
	q.PushSeq(2, 2, 1)
	q.Clear()
	if q.Len() != 0 {
		t.Error("Clear left items behind")
	}
	q.PushSeq(3, 3, 2)
	if v, ok := q.Pop(); !ok || v != 3 {
		t.Error("queue unusable after Clear")
	}
}

// checkHeap fails the test unless the backing array satisfies the 4-ary
// max-heap property: no item has precedence over its parent. Checking every
// child against its parent is the same as checking every parent against
// all of its children.
func checkHeap[T any](t *testing.T, q *Queue[T], context string) {
	t.Helper()
	for i := 1; i < len(q.items); i++ {
		if p := parent(i); before(&q.items[i], &q.items[p]) {
			t.Fatalf("%s: heap property violated between index %d and its parent %d", context, i, p)
		}
	}
	for i := range q.items {
		for c := firstChild(i); c < firstChild(i)+arity && c < len(q.items); c++ {
			if parent(c) != i {
				t.Fatalf("parent(%d) = %d, but %d lists it as a child", c, parent(c), i)
			}
		}
	}
}

// TestEntrySize pins a queued search node (an int32 arena slot) at 24
// bytes of heap array: priority, the 64-bit node ID, and the slot.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry[int32]{}); got != 24 {
		t.Fatalf("entry[int32] is %d bytes, want 24", got)
	}
}

// BenchmarkQueuePushPop measures the search's queue pattern: each operation
// pops the best entry and pushes four children, with priorities drawn from
// eight values so most comparisons meet a tie. The queue holds between 96k
// and 112k entries throughout; the untimed refill to 96k that keeps it
// there stands in for the search's queue cap.
func BenchmarkQueuePushPop(b *testing.B) {
	const low, high = 96_000, 112_000
	src := rng.New(3)
	prios := make([]float64, 1<<12)
	for i := range prios {
		prios[i] = float64(src.Intn(8))
	}
	var q Queue[int32]
	k := 0
	var id uint64
	push := func(v int32) {
		k = (k + 1) & (len(prios) - 1)
		q.PushSeq(v, prios[k], id)
		id++
	}
	fill := func() {
		q.Clear()
		for i := 0; i < low; i++ {
			push(int32(i))
		}
	}
	fill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := q.Pop()
		for c := int32(1); c <= 4; c++ {
			push(4*v + c)
		}
		if q.Len() > high {
			b.StopTimer()
			fill()
			b.StartTimer()
		}
	}
}

// TestPushSeqAndReplaceTop drives a queue keyed by its caller's IDs, given
// out of push order: PushSeq, Top, Pop and ReplaceTop with any new value
// and key — lower, equal or higher precedence than the old top — checked
// against a linear-scan model after every operation.
func TestPushSeqAndReplaceTop(t *testing.T) {
	type item struct {
		v        int
		priority float64
		id       uint64
	}
	src := rng.New(43)
	var q Queue[int]
	var model []item
	best := func() int {
		b := 0
		for i, it := range model {
			m := model[b]
			if it.priority > m.priority || it.priority == m.priority && it.id < m.id {
				b = i
			}
		}
		return b
	}
	// id is a bijection on 32-bit values, so the IDs are unique but not
	// in push order.
	id := func(i int) uint64 { return uint64(uint32(i) * 2654435761) }
	for i := 0; i < 4000; i++ {
		switch r := src.Intn(4); {
		case r == 0 || len(model) == 0:
			p := float64(src.Intn(4))
			q.PushSeq(i, p, id(i))
			model = append(model, item{i, p, id(i)})
		case r == 1:
			b := best()
			if got, ok := q.Pop(); !ok || got != model[b].v {
				t.Fatalf("op %d: Pop = %d (%v), want %d", i, got, ok, model[b].v)
			}
			model = append(model[:b], model[b+1:]...)
		default:
			b := best()
			p := float64(src.Intn(4))
			q.ReplaceTop(i, p, id(i))
			model[b] = item{i, p, id(i)}
		}
		if len(model) == 0 {
			continue
		}
		if got, p, id := q.Top(); got != model[best()].v || p != model[best()].priority || id != model[best()].id {
			t.Fatalf("op %d: Top = %d (%v, %d), want %+v", i, got, p, id, model[best()])
		}
	}
}

// TestMapKeepsKeys: a mapped queue is a valid heap that holds every value
// under its key, so it pops in its source's order.
func TestMapKeepsKeys(t *testing.T) {
	src := rng.New(47)
	var q Queue[int]
	for i := 0; i < 500; i++ {
		q.PushSeq(i, float64(src.Intn(5)), uint64(src.Intn(1<<20))<<10|uint64(i))
	}
	m := Map(&q, func(v int) string { return fmt.Sprint(v) })
	checkHeap(t, &m, "mapped queue")
	for q.Len() > 0 {
		v, _ := q.Pop()
		if got, ok := m.Pop(); !ok || got != fmt.Sprint(v) {
			t.Fatalf("mapped queue pops %q (%v), source pops %d", got, ok, v)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("mapped queue holds %d more items than its source", m.Len())
	}
}
