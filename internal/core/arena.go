package core

import (
	"fmt"
	"slices"

	"repro/internal/bits"
	"repro/internal/pprm"
)

// The search tree lives in an index arena instead of as a graph of heap
// objects. Nodes sit in fixed pages and refer to each other, and to their
// materialized expansions, by int32 slot, so node holds no pointer and
// every page is a noscan allocation: the garbage collector never walks the
// tree, however many nodes are queued.
//
// Materialized expansions are stored by form (pprm.UsesWord), and both
// stores are pointer-free. A word-form expansion (n ≤ 6) is 2n uint64s in
// a slab of pages beside the nodes, each output's coefficient word and
// hash. A slice-form expansion (n ≥ 7) is one run of uint32s in a run
// store (pprm.AppendRun: per output its term count and capacity, then its
// sorted terms), named by the run's first word. The searcher reads either
// through a view Spec that aliases the store, and writes new expansions
// into buffers of its own that commit copies in.
//
// Liveness is explicit. A slot is live while its node is the root, queued,
// the best solution, or an ancestor of one of those — exactly the nodes a
// garbage-collected tree would keep reachable. Each node counts its live
// children in kids, queued leaves (frontier.go) included, and
// searcher.release frees a node and then every expanded ancestor whose
// count drops to zero.

const (
	pageShift = 10
	pageSize  = 1 << pageShift // nodes per page: 1,024 × 48 B = 48 KiB

	slabPageShift = 7
	slabPageSize  = 1 << slabPageShift // expansions per slab page: 128 × 64 B = 8 KiB at n = 4

	runPageShift = 11 // run store page: 2,048 × 4 B = 8 KiB
)

// rootSlot is the root's arena slot: it is allocated first and never freed.
const rootSlot int32 = 0

// arena holds one searcher's search-tree nodes and materialized expansions.
// Pages never move once allocated, so a *node returned by at, a slab entry
// returned by words and a run returned by run stay valid while later
// allocations grow the arena.
type arena struct {
	pages [][]node
	used  int32   // slots handed out from the pages so far
	free  []int32 // released node slots, reused last-in first-out

	// n is the expansions' variable count. In word form (wordLen = 2n) an
	// expansion slot indexes the slab; in slice form (wordLen = −1) it is
	// the first word of a run in runs.
	n         int
	wordLen   int
	wordBytes int64 // Spec.MemBytes of a word-form expansion, which only n fixes
	slab      [][]uint64
	exps      int32   // slab entries handed out so far
	freeExps  []int32 // released slab entries
	runs      runStore[uint32]
}

// init sets the arena up for expansions of n variables.
func (a *arena) init(n int) {
	a.n = n
	a.wordLen = -1
	if pprm.UsesWord(n) {
		a.wordLen = 2 * n
		a.wordBytes = pprm.NewSpec(n).MemBytes()
		return
	}
	a.runs.init(runPageShift)
}

// wordForm reports whether the arena stores expansions in the slab.
func (a *arena) wordForm() bool { return a.wordLen >= 0 }

// at returns the node in slot i.
func (a *arena) at(i int32) *node { return &a.pages[i>>pageShift][i&(pageSize-1)] }

// alloc stores n in a free slot and returns the slot.
func (a *arena) alloc(n node) int32 {
	var i int32
	if k := len(a.free); k > 0 {
		i = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		i = a.used
		if int(i>>pageShift) == len(a.pages) {
			a.pages = append(a.pages, make([]node, pageSize))
		}
		a.used++
	}
	*a.at(i) = n
	return i
}

// words returns the slab entry of expansion slot j, in place.
func (a *arena) words(j int32) []uint64 {
	off := int(j&(slabPageSize-1)) * a.wordLen
	return a.slab[j>>slabPageShift][off : off+a.wordLen]
}

// putWords stores a word-form expansion, given as pprm.Spec.AppendWords
// writes it, and returns its slot.
func (a *arena) putWords(w []uint64) int32 {
	var j int32
	if k := len(a.freeExps); k > 0 {
		j = a.freeExps[k-1]
		a.freeExps = a.freeExps[:k-1]
	} else {
		j = a.exps
		a.exps++
		if int(j>>slabPageShift) == len(a.slab) {
			a.slab = append(a.slab, make([]uint64, slabPageSize*a.wordLen))
		}
	}
	copy(a.words(j), w)
	return j
}

// run returns the slice-form expansion whose run starts at j, in place.
func (a *arena) run(j int32) []uint32 {
	r := a.runs.tail(j)
	k := pprm.RunLen(r, a.n)
	return r[:k:k]
}

// putRun stores a slice-form expansion, given as pprm.Spec.AppendRun
// writes it, and returns its slot.
func (a *arena) putRun(r []uint32) int32 {
	j := a.runs.alloc(len(r))
	copy(a.runs.tail(j), r)
	return j
}

// putSpec stores the root's expansion sp and returns its slot. The arena
// keeps a copy: the words in word form, the run in slice form.
func (a *arena) putSpec(sp *pprm.Spec) int32 {
	if !a.wordForm() {
		return a.putRun(sp.AppendRun(nil))
	}
	var w [maxWords]uint64
	if len(sp.Out) != a.n {
		panic(fmt.Sprintf("core: a %d-output expansion in a %d-variable search", len(sp.Out), a.n))
	}
	return a.putWords(sp.AppendWords(w[:0]))
}

// memOf estimates the bytes the node in slot i pins while it waits in the
// queue: nodeBytes plus Spec.MemBytes of its expansion, when it has one
// (pprm.RunMemBytes of a run is that figure for the Spec it stands for).
// Most queued nodes are lazy. Ancestor expansions kept alive through the
// parent chain are shared among many queued nodes and are not charged; the
// estimate is deliberately a lower bound, like the node-count stand-in it
// replaces, but it scales with expansion size instead of pretending all
// nodes cost the same. The node does not store it: a queued node's
// expansion is fixed from push to pop, so push, pop and the recount after
// a prune all compute the same charge.
func (a *arena) memOf(i int32) int64 {
	j := a.at(i).spec
	switch {
	case j < 0:
		return nodeBytes
	case a.wordForm():
		return nodeBytes + a.wordBytes
	}
	return nodeBytes + pprm.RunMemBytes(a.run(j))
}

// drop frees slot i and its expansion, if any.
func (a *arena) drop(i int32) {
	switch j := a.at(i).spec; {
	case j < 0:
	case a.wordForm():
		a.freeExps = append(a.freeExps, j)
	default:
		a.runs.free(j, len(a.run(j)))
	}
	a.free = append(a.free, i)
}

// expansion returns the materialized expansion of the node in slot i, or
// nil when the node is lazy. It is the searcher's view, loaded from the
// store and valid until the next call, and must not be modified.
func (s *searcher) expansion(i int32) *pprm.Spec {
	j := s.ar.at(i).spec
	switch {
	case j < 0:
		return nil
	case s.ar.wordForm():
		s.view.LoadWords(s.ar.words(j))
	default:
		s.view.LoadRun(s.ar.run(j))
	}
	return &s.view
}

// derive returns the expansion of the node in slot i with v_target =
// v_target ⊕ factor applied, and the change in term count. The result is
// the searcher's scratch, valid until the next call; putDerived stores it.
func (s *searcher) derive(i int32, target int, factor bits.Mask) (*pprm.Spec, int) {
	if s.ar.wordForm() {
		return &s.scratch, s.expansion(i).SubstituteTo(&s.scratch, target, factor)
	}
	var delta int
	s.runBuf, delta = pprm.AppendSubstituteRun(s.runBuf[:0], s.ar.run(s.ar.at(i).spec), target, factor, &s.deltaBuf)
	s.scratch.LoadRun(s.runBuf)
	return &s.scratch, delta
}

// putDerived stores the expansion the last derive returned and returns its
// slot.
func (s *searcher) putDerived() int32 {
	if s.ar.wordForm() {
		return s.ar.putSpec(&s.scratch)
	}
	return s.ar.putRun(s.runBuf)
}

// resetRuns empties the run store while the root is the only live node (a
// restart) and stores the root's run again. A run is reused only by one of
// the same length, so without it the runs the abandoned frontier freed
// would stay in the store, uncounted by memOf, whatever lengths the next
// subtree needs.
func (s *searcher) resetRuns() {
	if s.ar.wordForm() {
		return
	}
	root := s.ar.at(rootSlot)
	s.runBuf = append(s.runBuf[:0], s.ar.run(root.spec)...)
	s.ar.runs.clear()
	root.spec = s.ar.putRun(s.runBuf)
}

// release frees node i, which nothing else holds any more: a queued node
// dropped by a prune or restart, a popped node that was cut off or pushed
// no children, or a superseded best solution. Every ancestor left without a
// live child is freed with it. The root is never freed.
func (s *searcher) release(i int32) {
	if i == rootSlot {
		return
	}
	p := s.ar.at(i).parent
	s.ar.drop(i)
	s.releaseKid(p)
}

// releaseKid takes one live child off node p's count — a released node, or
// a queued leaf, which has no slot of its own — and frees p, and so on up,
// when that was its last.
func (s *searcher) releaseKid(p int32) {
	for {
		pn := s.ar.at(p)
		pn.kids--
		if pn.kids > 0 || p == rootSlot {
			return
		}
		next := pn.parent
		s.ar.drop(p)
		p = next
	}
}

// runStore keeps runs of consecutive elements in pages that never move, so
// a run is named by the index of its first element and read in place. Each
// page is one allocation of 2^shift elements; with a pointer-free T it is
// noscan. A run lies within one page, or, when it is longer than a page,
// gets a page of its own. A released run goes on the free stack for its
// length and is reused whole; an oversized one is handed back to the
// garbage collector instead. The frontier keeps its leaves here and the
// arena its slice-form expansions.
type runStore[T any] struct {
	shift    uint8
	pages    [][]T
	used     int32     // elements handed out, counting whole pages for oversized runs
	freeRuns [][]int32 // freeRuns[k]: first elements of released runs of length k
}

// init sets the page size to 2^shift elements.
func (r *runStore[T]) init(shift uint8) { r.shift = shift }

// pageLen is the number of elements in a regular page.
func (r *runStore[T]) pageLen() int { return 1 << r.shift }

// at returns element i.
func (r *runStore[T]) at(i int32) *T {
	return &r.pages[i>>r.shift][int(i)&(r.pageLen()-1)]
}

// tail returns the rest of the page from element i on.
func (r *runStore[T]) tail(i int32) []T {
	return r.pages[i>>r.shift][int(i)&(r.pageLen()-1):]
}

// alloc reserves a run of k > 0 elements and returns its first.
func (r *runStore[T]) alloc(k int) int32 {
	if k < len(r.freeRuns) {
		if free := r.freeRuns[k]; len(free) > 0 {
			r.freeRuns[k] = free[:len(free)-1]
			return free[len(free)-1]
		}
	}
	size := r.pageLen()
	if rest := size - int(r.used)&(size-1); rest < min(k, size) {
		r.free(r.used, rest)
		r.used += int32(rest)
	}
	p := int(r.used >> r.shift)
	switch {
	case p == len(r.pages):
		r.pages = append(r.pages, nil)
		fallthrough
	case k > size || len(r.pages[p]) != size:
		// A new page, an oversized one, or a regular page in place of an
		// oversized one after clear.
		r.pages[p] = make([]T, max(k, size))
	}
	start := r.used
	r.used += int32(min(k, size))
	return start
}

// free releases the run of k elements at start.
func (r *runStore[T]) free(start int32, k int) {
	if k > r.pageLen() {
		r.pages[start>>r.shift] = nil
		return
	}
	if len(r.freeRuns) <= k {
		r.freeRuns = slices.Grow(r.freeRuns, k+1-len(r.freeRuns))[:k+1]
	}
	r.freeRuns[k] = append(r.freeRuns[k], start)
}

// clear releases every run at once. The regular pages stay for reuse; the
// oversized ones go back to the garbage collector.
func (r *runStore[T]) clear() {
	for k := range r.freeRuns {
		r.freeRuns[k] = r.freeRuns[k][:0]
	}
	for p := range r.pages {
		if len(r.pages[p]) != r.pageLen() {
			r.pages[p] = nil
		}
	}
	r.used = 0
}
