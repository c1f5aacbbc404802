package core

import "repro/internal/pprm"

// The search tree lives in an index arena instead of as a graph of heap
// objects. Nodes sit in fixed pages and refer to each other, and to their
// materialized expansions, by int32 slot, so node holds no pointer and
// every page is a noscan allocation: the garbage collector never walks the
// tree, however many nodes are queued. The only pointers left are the
// expansions in the side table, one per materialized node.
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
)

// rootSlot is the root's arena slot: it is allocated first and never freed.
const rootSlot int32 = 0

// arena holds one searcher's search-tree nodes and materialized expansions.
// Pages never move once allocated, so a *node returned by at stays valid
// while later allocations grow the arena.
type arena struct {
	pages     [][]node
	used      int32   // slots handed out from the pages so far
	free      []int32 // released node slots, reused last-in first-out
	specs     []*pprm.Spec
	freeSpecs []int32 // released side-table slots
}

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

// putSpec stores sp in the side table and returns its slot, or −1 (a lazy
// node) when sp is nil.
func (a *arena) putSpec(sp *pprm.Spec) int32 {
	if sp == nil {
		return -1
	}
	if k := len(a.freeSpecs); k > 0 {
		j := a.freeSpecs[k-1]
		a.freeSpecs = a.freeSpecs[:k-1]
		a.specs[j] = sp
		return j
	}
	a.specs = append(a.specs, sp)
	return int32(len(a.specs) - 1)
}

// spec returns the materialized expansion of the node in slot i, or nil
// when the node is lazy.
func (a *arena) spec(i int32) *pprm.Spec {
	if j := a.at(i).spec; j >= 0 {
		return a.specs[j]
	}
	return nil
}

// drop frees slot i and its side-table entry, if any.
func (a *arena) drop(i int32) {
	if j := a.at(i).spec; j >= 0 {
		a.specs[j] = nil
		a.freeSpecs = append(a.freeSpecs, j)
	}
	a.free = append(a.free, i)
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
