package core

import (
	"cmp"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/bits"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/queue"
	"repro/internal/rng"
)

// TestLeafSize pins a queued leaf at 12 bytes and its list header at 24,
// and keeps both free of pointers, so the leaf store's pages are noscan
// like the arena's.
func TestLeafSize(t *testing.T) {
	if got := unsafe.Sizeof(leaf{}); got > 12 {
		t.Fatalf("leaf is %d bytes, want at most 12", got)
	}
	if got := unsafe.Sizeof(leafList{}); got > 24 {
		t.Fatalf("leafList is %d bytes, want at most 24", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(leaf{}), reflect.TypeOf(leafList{})} {
		if !pointerFree(typ) {
			t.Errorf("%s holds a pointer; the leaf store must stay pointer-free", typ)
		}
	}
}

// frontierModel drives a searcher's frontier through the real commit,
// dequeue and prune paths and mirrors every child in a plain heap of one
// entry per child, keyed by (priority, node ID) — the queue the search
// used before partial expansion.
type frontierModel struct {
	t     *testing.T
	s     *searcher
	src   *rng.Source
	model queue.Queue[int] // node IDs
	live  []int32          // popped nodes that may still be expanded
}

func newFrontierModel(t *testing.T, seed uint64) *frontierModel {
	spec, err := pprm.FromPerm(perm.Random(4, rng.New(seed)))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Dedup = false // every candidate is queued
	opts.GreedyK = 0
	opts.MaxGates = 64
	return &frontierModel{t: t, s: newSearcher(spec, opts), src: rng.New(seed)}
}

// commit expands the node in slot pi with k random candidates spread over
// the four targets, each group in descending priority as generate orders
// it. Term counts come from a narrow range, so many priorities tie.
func (m *frontierModel) commit(pi int32, k int) {
	s := m.s
	parent := s.ar.at(pi)
	depth := int(parent.depth) + 1
	var gr genResult
	for target := 0; target < s.n; target++ {
		tg := gr.next(target)
		for j := 0; j < k/s.n+m.src.Intn(2); j++ {
			factor := bits.Mask(m.src.Intn(1<<s.n)) &^ bits.Bit(target)
			terms := int32(s.n + 1 + m.src.Intn(3))
			c := pcand{scored: scored{
				priority: s.priority(depth, int(terms), int(parent.terms-terms), factor),
				factor:   factor,
				terms:    terms,
				admit:    true,
			}, sol: -1}
			at, _ := slices.BinarySearchFunc(tg.cands, c.priority, func(e pcand, p float64) int {
				if e.priority >= p {
					return -1
				}
				return 1
			})
			tg.cands = slices.Insert(tg.cands, at, c)
		}
	}
	id := s.nodes
	for _, tg := range gr.targets {
		for _, c := range tg.cands {
			m.model.PushSeq(id, c.priority, uint64(id))
			id++
		}
	}
	s.commit(pi, &gr)
	if s.nodes != id {
		m.t.Fatalf("node counter at %d after commit, want %d", s.nodes, id)
	}
}

// pop takes the next child from both queues and checks they agree.
func (m *frontierModel) pop() bool {
	want, ok := m.model.Pop()
	slot, got := m.s.dequeue()
	if ok != got {
		m.t.Fatalf("model pop ok=%v, frontier %v", ok, got)
	}
	if !ok {
		return false
	}
	if id := m.s.ar.at(slot).id; id != want {
		m.t.Fatalf("popped node %d, plain heap pops %d", id, want)
	}
	m.live = append(m.live, slot)
	return true
}

// expand commits k children under a random popped node, or releases it.
func (m *frontierModel) expand(k int) {
	if len(m.live) == 0 {
		return
	}
	i := m.src.Intn(len(m.live))
	slot := m.live[i]
	m.live = slices.Delete(m.live, i, i+1)
	m.commit(slot, k) // commit with no children releases the node
}

// prune cuts both queues to k children and checks that the same children
// were dropped, each once, and that queueBytes fell by the dropped
// children's charge. (Popped nodes are not uncharged here as the search
// loop does, so queueBytes is compared with the queue's charge plus an
// offset.)
func (m *frontierModel) prune(k int) {
	charge := func() int64 {
		var sum int64
		for _, c := range m.s.queuedInOrder() {
			sum += m.s.childMem(&c)
		}
		return sum
	}
	offset := m.s.queueBytes - charge()
	var want, got []int
	ordered := m.modelInOrder()
	m.model.Clear()
	for i, c := range ordered {
		if i < k {
			m.model.PushSeq(c.id, c.priority, uint64(c.id))
		} else {
			want = append(want, c.id)
		}
	}
	m.s.pruneQueue(k, func(c *queuedChild) {
		got = append(got, m.s.childNode(c).id)
		m.s.discardChild(c)
	})
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(want, got) {
		m.t.Fatalf("prune to %d dropped %v, plain heap dropped %v", k, got, want)
	}
	if m.s.fr.n != m.model.Len() {
		m.t.Fatalf("after prune: %d queued, plain heap holds %d", m.s.fr.n, m.model.Len())
	}
	if kept := charge(); m.s.queueBytes != kept+offset {
		m.t.Fatalf("after prune: queueBytes=%d, kept children charge %d + %d", m.s.queueBytes, kept, offset)
	}
}

// queuedInOrder lists every queued child in precedence order (walk).
func (s *searcher) queuedInOrder() []queuedChild {
	var cs []queuedChild
	s.walk(s.fr.cursors(), func(c *queuedChild) { cs = append(cs, *c) })
	return cs
}

// modelKey is one child of the plain heap: its node ID and priority.
type modelKey struct {
	id       int
	priority float64
}

// modelInOrder lists the plain heap's children in precedence order.
func (m *frontierModel) modelInOrder() []modelKey {
	var keys []modelKey
	for _, e := range queueEntries(&m.model) {
		keys = append(keys, modelKey{e.v, e.priority})
	}
	return keys
}

// check compares walk, with the keys it reports, with the plain heap's
// precedence order, and the queued-children count with its size.
func (m *frontierModel) check() {
	want := m.modelInOrder()
	var ordered []modelKey
	for _, c := range m.s.queuedInOrder() {
		if id := m.s.childNode(&c).id; uint64(id) != c.id {
			m.t.Fatalf("walk reports node %d under ID %d", id, c.id)
		}
		ordered = append(ordered, modelKey{int(c.id), c.priority})
	}
	if !slices.Equal(ordered, want) {
		m.t.Fatalf("walk %v, plain heap order %v", ordered, want)
	}
	if m.s.fr.n != len(want) {
		m.t.Fatalf("%d queued children counted, plain heap holds %d", m.s.fr.n, len(want))
	}
}

// TestFrontierMatchesPlainHeap pins partial expansion's pop order against
// a heap of one entry per child: random commits with many tied priorities,
// interleaved with pops, prunes that cut inside lists, and the
// precedence-ordered walk.
func TestFrontierMatchesPlainHeap(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		m := newFrontierModel(t, 5)
		m.commit(rootSlot, 12)
		for step := 0; step < 3000; step++ {
			switch r := m.src.Intn(20); {
			case r < 9:
				m.pop()
			case r < 18:
				k := m.src.Intn(14)
				if m.src.Intn(16) == 0 {
					k = 64 + m.src.Intn(64) // past sortByPriority's insertion-sort range
				}
				m.expand(k)
			case r < 19:
				m.prune(m.s.fr.n * (1 + m.src.Intn(3)) / 4)
			default:
				m.check()
			}
			if m.s.fr.n == 0 {
				m.commit(rootSlot, 8)
			}
		}
		m.check()
		for m.pop() {
		}
	})
}

// cycleFrontier returns a searcher with its root committed and a commit
// function that expands the node in slot pi into four children, two per
// target, with priorities from a narrow range of term counts so most
// comparisons meet a tie: the queue pattern of BenchmarkFrontierCycle.
func cycleFrontier(tb testing.TB) (*searcher, func(pi int32)) {
	spec, err := pprm.FromPerm(perm.Random(4, rng.New(3)))
	if err != nil {
		tb.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Dedup = false
	opts.GreedyK = 0
	opts.MaxGates = 1 << 20
	s := newSearcher(spec, opts)
	src := rng.New(3)
	gr := genResult{}
	commit := func(pi int32) {
		parent := s.ar.at(pi)
		gr.reset()
		for target := 0; target < 2; target++ {
			tg := gr.next(target)
			for j := 0; j < 2; j++ {
				factor := bits.Mask(src.Intn(1<<s.n)) &^ bits.Bit(target)
				terms := int32(s.n + 1 + src.Intn(4))
				p := s.priority(int(parent.depth)+1, int(terms), int(parent.terms-terms), factor)
				tg.cands = append(tg.cands, pcand{scored: scored{priority: p, factor: factor, terms: terms, admit: true}, sol: -1})
			}
			slices.SortStableFunc(tg.cands, func(a, b pcand) int { return cmp.Compare(b.priority, a.priority) })
		}
		s.commit(pi, &gr)
	}
	commit(rootSlot)
	return s, commit
}

// growFrontier pops and expands the best child until n children are
// queued.
func growFrontier(s *searcher, commit func(pi int32), n int) {
	for s.fr.n < n {
		pi, _ := s.dequeue()
		commit(pi)
	}
}

// BenchmarkFrontierCycle measures the search's queue pattern on a frontier
// of about 100K children: each operation pops the best child — surfacing
// it from its list and re-keying the list's entry — and commits four
// children under it (cycleFrontier). An untimed prune keeps the frontier
// between 96K and 112K children, standing in for the search's queue cap.
func BenchmarkFrontierCycle(b *testing.B) {
	const low, high = 96_000, 112_000
	s, commit := cycleFrontier(b)
	growFrontier(s, commit, low)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi, _ := s.dequeue()
		commit(pi)
		if s.fr.n > high {
			b.StopTimer()
			s.pruneQueue(low, s.discardChild)
			b.StartTimer()
		}
	}
}

// BenchmarkFrontierPrune measures one prune of a frontier of about 100K
// children (cycleFrontier) to half; regrowing it is untimed.
func BenchmarkFrontierPrune(b *testing.B) {
	const size = 100_000
	s, commit := cycleFrontier(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		growFrontier(s, commit, size)
		b.StartTimer()
		s.pruneQueue(size/2, s.discardChild)
	}
}

// BenchmarkFrontierRestart measures one restart of a frontier of about
// 100K children (cycleFrontier): the search abandons the tree but its root
// and re-enters through a first move, here always the second-best one.
// Regrowing the frontier is untimed.
func BenchmarkFrontierRestart(b *testing.B) {
	const size = 100_000
	s, commit := cycleFrontier(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		growFrontier(s, commit, size)
		s.nextFirstMove = 1
		b.StartTimer()
		if !s.restart() {
			b.Fatal("no restart fired")
		}
	}
}

// TestPruneAllocation pins what a prune allocates: the copy of the heap
// its walk pops, 24 bytes per heap entry, plus a constant — not a list of
// every queued child. It prunes a frontier of 100K children to half. An
// earlier frontier of that size, pruned to nothing, leaves the free stacks
// that releasing fills already grown, as they are in a search that has
// pruned before. runtime.MemStats.TotalAlloc counts every goroutine's
// allocations, so now and then one from elsewhere in the process (the race
// detector's runtime, say) lands in the window. The test prunes three
// identically grown frontiers and holds the smallest reading to the bound.
func TestPruneAllocation(t *testing.T) {
	const size = 100_000
	got, entries, children := uint64(math.MaxUint64), 0, 0
	for range 3 {
		s, commit := cycleFrontier(t)
		growFrontier(s, commit, size)
		s.pruneQueue(0, s.discardChild)
		commit(rootSlot)
		growFrontier(s, commit, size)
		if entries != 0 && (s.fr.pq.Len() != entries || s.fr.n != children) {
			t.Fatalf("frontiers grew apart: %d children in %d heap entries, then %d in %d", children, entries, s.fr.n, s.fr.pq.Len())
		}
		entries, children = s.fr.pq.Len(), s.fr.n
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.pruneQueue(size/2, s.discardChild)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("prune of %d children in %d heap entries allocated %d bytes", children, entries, got)
	if limit := 24*uint64(entries) + 4096; got > limit {
		t.Fatalf("prune of %d children in %d heap entries allocated %d bytes, want at most %d", children, entries, got, limit)
	}
}
