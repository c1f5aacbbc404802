package core

import (
	"slices"

	"repro/internal/bits"
	"repro/internal/pprm"
)

// The search tree lives in an index arena instead of as a graph of heap
// objects. Nodes are one-element runs of a run store (runStore, below) and
// refer to each other, and to their materialized expansions, by int32 slot,
// so node holds no pointer and every page is a noscan allocation: the
// garbage collector never walks the tree, however many nodes are queued.
//
// Materialized expansions are runs of uint32s in a second pointer-free run
// store, as pprm.Spec.AppendRun writes them (in word form each output's
// coefficient word and hash; in slice form each output's term count and
// capacity, then its sorted terms), each named by its first word. The
// searcher reads one through a view Spec that aliases the store
// (pprm.Spec.LoadRun), and writes new ones into buffers of its own that
// commit copies in.
//
// Liveness is explicit. A slot is live while its node is the root, queued,
// the best solution, or an ancestor of one of those — exactly the nodes a
// garbage-collected tree would keep reachable. Each node counts its live
// children in kids, queued leaves (frontier.go) included, and
// searcher.release frees a node and then every expanded ancestor whose
// count drops to zero. A restart keeps the root alone and empties the
// stores at once (resetToRoot).

const (
	nodePageShift = 10 // node store page: 1,024 × 48 B = 48 KiB
	runPageShift  = 11 // run store page: 2,048 × 4 B = 8 KiB
)

// rootSlot is the root's arena slot: it is allocated first and never freed.
const rootSlot int32 = 0

// arena holds one searcher's search-tree nodes and materialized expansions.
// Pages never move once allocated, so a *node returned by at and a run
// returned by run stay valid while later allocations grow the arena.
type arena struct {
	nodes runStore[node] // one-element runs
	runs  runStore[uint32]
	n     int // the expansions' variable count
}

// init sets the arena up for expansions of n variables.
func (a *arena) init(n int) {
	a.n = n
	a.nodes.init(nodePageShift)
	a.runs.init(runPageShift)
}

// at returns the node in slot i. It is the search's most frequent call, so
// it indexes the node store's pages with a constant shift and mask.
func (a *arena) at(i int32) *node {
	return &a.nodes.pages[i>>nodePageShift][i&(1<<nodePageShift-1)]
}

// alloc stores n in a free slot and returns the slot.
func (a *arena) alloc(n node) int32 {
	i := a.nodes.alloc(1)
	*a.at(i) = n
	return i
}

// run returns the expansion whose run starts at j, in place.
func (a *arena) run(j int32) []uint32 {
	r := a.runs.tail(j)
	k := pprm.RunLen(r, a.n)
	return r[:k:k]
}

// putRun stores an expansion, given as pprm.Spec.AppendRun writes it, and
// returns its slot.
func (a *arena) putRun(r []uint32) int32 {
	j := a.runs.alloc(len(r))
	copy(a.runs.tail(j), r)
	return j
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
	if j < 0 {
		return nodeBytes
	}
	return nodeBytes + pprm.RunMemBytes(a.run(j), a.n)
}

// drop frees slot i and its expansion, if any.
func (a *arena) drop(i int32) {
	if j := a.at(i).spec; j >= 0 {
		a.runs.free(j, len(a.run(j)))
	}
	a.nodes.free(i, 1)
}

// expansion returns the materialized expansion of the node in slot i, or
// nil when the node is lazy. It is the searcher's view, loaded from the
// store and valid until the next call, and must not be modified.
func (s *searcher) expansion(i int32) *pprm.Spec {
	j := s.ar.at(i).spec
	if j < 0 {
		return nil
	}
	s.view.LoadRun(s.ar.run(j))
	return &s.view
}

// derive returns the expansion of the node in slot i with v_target =
// v_target ⊕ factor applied, and the change in term count. The result is
// the searcher's scratch, valid until the next call; putDerived stores it.
func (s *searcher) derive(i int32, target int, factor bits.Mask) (*pprm.Spec, int) {
	var delta int
	s.runBuf, delta = pprm.AppendSubstituteRun(s.runBuf[:0], s.ar.run(s.ar.at(i).spec), s.n, target, factor, &s.deltaBuf)
	s.scratch.LoadRun(s.runBuf)
	return &s.scratch, delta
}

// putDerived stores the expansion the last derive returned and returns its
// slot.
func (s *searcher) putDerived() int32 { return s.ar.putRun(s.runBuf) }

// resetToRoot abandons the whole search tree but its root (a restart,
// which fires only while no solution is held, so the root is the one node
// worth keeping). It empties the frontier and the node and run stores at
// once, instead of releasing the queued children one by one, and stores
// the root again in rootSlot, with its run and no children. A run is
// reused only by one of the same length, so without the clear the runs of
// the abandoned tree would stay in the store, uncounted by memOf, whatever
// lengths the next subtree needs.
func (s *searcher) resetToRoot() {
	root := *s.ar.at(rootSlot)
	s.runBuf = append(s.runBuf[:0], s.ar.run(root.spec)...)
	s.fr.clear()
	s.ar.nodes.clear()
	s.ar.runs.clear()
	root.spec, root.kids = s.ar.putRun(s.runBuf), 0
	s.ar.alloc(root)
}

// release frees node i, which nothing else holds any more: a queued node
// dropped by a prune, a popped node that was cut off or pushed
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
// garbage collector instead. The arena keeps its nodes and expansions
// here, and the frontier its list headers and leaves; a node or a list
// header is a run of one element, so its slots are handed out in order and
// reused last in, first out.
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
