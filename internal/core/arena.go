package core

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/pprm"
)

// The search tree lives in an index arena instead of as a graph of heap
// objects. Nodes sit in fixed pages and refer to each other, and to their
// materialized expansions, by int32 slot, so node holds no pointer and
// every page is a noscan allocation: the garbage collector never walks the
// tree, however many nodes are queued.
//
// Materialized expansions are stored by form (pprm.UsesWord). A word-form
// expansion (n ≤ 6) is 2n uint64s in a slab of pages beside the nodes,
// each output's coefficient word and hash, so it is pointer-free too. The
// only pointers left are slice-form expansions (n ≥ 7) in the side table,
// one per materialized node.
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
)

// rootSlot is the root's arena slot: it is allocated first and never freed.
const rootSlot int32 = 0

// arena holds one searcher's search-tree nodes and materialized expansions.
// Pages never move once allocated, so a *node returned by at, and a slab
// entry returned by words, stay valid while later allocations grow the
// arena.
type arena struct {
	pages [][]node
	used  int32   // slots handed out from the pages so far
	free  []int32 // released node slots, reused last-in first-out

	// Expansion slots index the slab in word form and specs in slice form;
	// wordLen is 2n in word form and −1 in slice form.
	wordLen   int
	wordBytes int64 // Spec.MemBytes of a word-form expansion, which only n fixes
	slab      [][]uint64
	specs     []*pprm.Spec
	exps      int32   // expansion slots handed out so far
	freeExps  []int32 // released expansion slots
}

// init sets the arena up for expansions of n variables.
func (a *arena) init(n int) {
	a.wordLen = -1
	if pprm.UsesWord(n) {
		a.wordLen = 2 * n
		a.wordBytes = pprm.NewSpec(n).MemBytes()
	}
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

// allocExp reserves an expansion slot.
func (a *arena) allocExp() int32 {
	if k := len(a.freeExps); k > 0 {
		j := a.freeExps[k-1]
		a.freeExps = a.freeExps[:k-1]
		return j
	}
	j := a.exps
	a.exps++
	if a.wordForm() {
		if int(j>>slabPageShift) == len(a.slab) {
			a.slab = append(a.slab, make([]uint64, slabPageSize*a.wordLen))
		}
	} else {
		a.specs = append(a.specs, nil)
	}
	return j
}

// words returns the slab entry of expansion slot j, in place.
func (a *arena) words(j int32) []uint64 {
	off := int(j&(slabPageSize-1)) * a.wordLen
	return a.slab[j>>slabPageShift][off : off+a.wordLen]
}

// putWords stores a word-form expansion, given as pprm.Spec.AppendWords
// writes it, and returns its slot.
func (a *arena) putWords(w []uint64) int32 {
	j := a.allocExp()
	copy(a.words(j), w)
	return j
}

// putSpec stores sp and returns its slot, or −1 (a lazy node) when sp is
// nil. A word-form sp is copied into the slab, so the caller may reuse it;
// a slice-form one is kept.
func (a *arena) putSpec(sp *pprm.Spec) int32 {
	switch {
	case sp == nil:
		return -1
	case a.wordForm():
		j := a.allocExp()
		if w := sp.AppendWords(a.words(j)[:0]); len(w) != a.wordLen {
			panic(fmt.Sprintf("core: a %d-output expansion in a %d-variable search", len(sp.Out), a.wordLen/2))
		}
		return j
	}
	j := a.allocExp()
	a.specs[j] = sp
	return j
}

// memOf estimates the bytes the node in slot i pins while it waits in the
// queue: nodeBytes plus Spec.MemBytes of its expansion, when it has one.
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
	return nodeBytes + a.specs[j].MemBytes()
}

// drop frees slot i and its expansion slot, if any.
func (a *arena) drop(i int32) {
	if j := a.at(i).spec; j >= 0 {
		if !a.wordForm() {
			a.specs[j] = nil
		}
		a.freeExps = append(a.freeExps, j)
	}
	a.free = append(a.free, i)
}

// expansion returns the materialized expansion of the node in slot i, or
// nil when the node is lazy. A word-form expansion is loaded into the
// searcher's view, valid until the next call; a slice-form one is the
// stored Spec. Either way it must not be modified.
func (s *searcher) expansion(i int32) *pprm.Spec {
	j := s.ar.at(i).spec
	switch {
	case j < 0:
		return nil
	case s.ar.wordForm():
		s.view.LoadWords(s.ar.words(j))
		return s.view
	}
	return s.ar.specs[j]
}

// derive returns base with v_target = v_target ⊕ factor applied, and the
// change in term count. A word-form one is the searcher's scratch, valid
// until the next call; a slice-form one is a fresh Spec.
func (s *searcher) derive(base *pprm.Spec, target int, factor bits.Mask) (*pprm.Spec, int) {
	if !s.ar.wordForm() {
		return base.SubstituteCopy(target, factor)
	}
	return s.scratch, base.SubstituteTo(s.scratch, target, factor)
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
