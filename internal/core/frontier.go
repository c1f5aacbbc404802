package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/bits"
	"repro/internal/queue"
)

// Partial expansion (Yoshizumi, Miura & Ishida, AAAI 2000) on a queue whose
// order is already total. An expansion usually queues several children, and
// most of them are never popped: the search ends, restarts or prunes first.
// So commit does not give each lazy child an arena node and a heap entry.
// It records the child as a leaf — the few facts the node would hold that
// cannot be derived from the parent — in a list sorted by precedence, and
// queues the list under one heap entry keyed by its best child. Popping
// that entry surfaces the child into an arena node and re-keys the entry
// with the next child's key (queue.ReplaceTop).
//
// The pop order is unchanged. The queue orders children by (priority, node
// ID), a strict total order: IDs are unique, and a child takes its ID when
// it is committed, in creation order, so equal priorities pop first in
// first out. Each list is sorted in that order and its entry always carries
// its head's key, so the heap pops the children of all lists and all plain
// entries in one k-way merge: the same sequence a heap of one entry per
// child pops. Popping a copy of the heap the same way lists every queued
// child in that order (walk), which is how prunes, snapshots and the
// transposition table's re-record after a reset see them.
//
// Everything else a queued child stands for is kept as well: its node ID
// and the node counter are taken at commit, the transposition table records
// it at commit, its parent's kids count includes it, and its memory charge
// (arena.memOf with no expansion) is the one a lazy queued node carries. A
// child that is queued alone, or with a materialized expansion (a near-miss
// solution), keeps a plain entry and an arena node as before: a single
// child gains nothing from a list, and a leaf has no room for an expansion.
//
// A leaf does not keep its state hash. The search needs it only when a
// prune forgets the child or a table reset re-records it, both rare, and
// then one probe of the parent's expansion (which a list's parent always
// holds) derives it again (leafHash). A surfaced child that is expanded
// takes the hash of the expansion it materializes (commit).

// leaf is one queued child kept in a list: what its node would hold that
// is not derived from the list (parent slot, depth, base ID), from the
// parent's expansion (state hash) or from the leaf itself (priority,
// elimination). It holds no pointer and is 12 bytes (pinned by
// TestLeafSize), against a 48-byte node plus a 24-byte heap entry.
type leaf struct {
	factor bits.Mask
	terms  int32
	id     uint16 // node ID − the list's baseID
	target uint8
}

// leafList is one list of leaves: a run of the leaf store whose leaves
// [head, end) are still queued, sorted by descending precedence. Leaves
// before head have surfaced; a prune moves end down. It is 24 bytes.
type leafList struct {
	baseID int   // first node ID its parent's commit could create
	parent int32 // arena slot of the expanded parent
	start  int32 // first leaf of the run in the store
	size   uint16
	head   uint16
	end    uint16
}

// Pages are small because every search that queues a list pays for
// zeroing the first page of each store, and most searches are short: a
// 3-variable search takes about 2 ms.
const (
	leafPageShift = 8
	leafPageSize  = 1 << leafPageShift // leaves per page: 256 × 12 B = 3 KiB
	listPageShift = 7                  // list headers per page: 128 × 24 B = 3 KiB
)

// maxList is the longest list: a parent with more lazy children queues
// several lists. maxIDSpan is the widest range of node IDs a list covers,
// since leaf.id is 16 bits: commit queues no lists for a parent with more
// candidates than that.
const (
	maxList   = leafPageSize
	maxIDSpan = math.MaxUint16
)

// frontier is the search's queue of unexpanded children: a heap whose
// entries are either plain nodes (an arena slot, ≥ 0) or lists (^slot,
// < 0), and the stores that hold the lists' headers and leaves. Both are
// run stores, like the arena's: a header is a one-element run and a list's
// leaves are one run, so the stores are pointer-free and reused across
// lists, a released run going on the free stack for its length.
type frontier struct {
	pq     queue.Queue[int32]
	lists  runStore[leafList] // one-element runs
	leaves runStore[leaf]     // pages of leafPageSize; a list's run fits in one
	n      int                // queued children, in lists or not
}

// init sets the stores' page sizes.
func (f *frontier) init() {
	f.lists.init(listPageShift)
	f.leaves.init(leafPageShift)
}

// list returns the list header in slot li, indexing the pages with a
// constant shift and mask as arena.at does.
func (f *frontier) list(li int32) *leafList {
	return &f.lists.pages[li>>listPageShift][li&(1<<listPageShift-1)]
}

// leaf returns the leaf in store slot i.
func (f *frontier) leaf(i int32) *leaf { return f.leaves.at(i) }

// newList makes a list of the leaves ls, in order, under parent and
// returns its index; baseID is the node ID their id fields count from.
func (f *frontier) newList(parent int32, baseID int, ls []keyedLeaf) int32 {
	start := f.leaves.alloc(len(ls))
	run := f.leaves.tail(start)
	for i := range ls {
		run[i] = ls[i].leaf
	}
	li := f.lists.alloc(1)
	*f.list(li) = leafList{baseID: baseID, parent: parent, start: start, size: uint16(len(ls)), end: uint16(len(ls))}
	return li
}

// dropList releases list li and its run.
func (f *frontier) dropList(li int32) {
	l := f.list(li)
	f.leaves.free(l.start, int(l.size))
	*l = leafList{}
	f.lists.free(li, 1)
}

// clear empties the frontier; the pages stay for reuse.
func (f *frontier) clear() {
	f.pq.Clear()
	f.lists.clear()
	f.leaves.clear()
	f.n = 0
}

// queuedChild names one queued child with its key: a plain node (slot ≥ 0)
// or a leaf (slot −1) of list li in store slot leaf.
type queuedChild struct {
	priority float64
	id       uint64
	slot     int32
	list     int32
	leaf     int32
}

// leafPriority is the queue priority of leaf l under the node in slot
// parent: Eq. (4), as priorityOf derives it for a node.
func (s *searcher) leafPriority(parent int32, l *leaf) float64 {
	p := s.ar.at(parent)
	return s.priority(int(p.depth)+1, int(l.terms), int(p.terms-l.terms), l.factor)
}

// leafNode is the node that leaf lf of list l stands for, without its
// state hash (see leafHash).
func (s *searcher) leafNode(l *leafList, lf *leaf) node {
	return s.newChild(l.parent, l.baseID+int(lf.id), int(lf.target), lf.factor, lf.terms)
}

// leafHash derives the state hash of leaf l under the node in slot parent
// by probing the parent's expansion.
func (s *searcher) leafHash(parent int32, l *leaf) uint64 {
	var h uint64
	_, h, s.deltaBuf = s.expansion(parent).SubstituteProbe(int(l.target), l.factor, s.deltaBuf)
	return h
}

// leafKey is the queue key of leaf l of list li: its priority and node ID.
func (s *searcher) leafKey(li int32, l *leaf) (float64, uint64) {
	ls := s.fr.list(li)
	return s.leafPriority(ls.parent, l), uint64(ls.baseID + int(l.id))
}

// enqueue queues the node in slot i as a plain entry.
func (s *searcher) enqueue(i int32, priority float64) {
	s.fr.pq.PushSeq(i, priority, uint64(s.ar.at(i).id))
	s.fr.n++
}

// keyedLeaf is a lazy child as commit collects it before queueing: the
// leaf and its priority.
type keyedLeaf struct {
	leaf
	priority float64
}

// queueLeaves queues the lazy children that one commit produced under the
// node in slot parent, given in creation order with IDs counted from
// baseID, as lists sorted by descending precedence: one list, or one per
// maxList children.
func (s *searcher) queueLeaves(parent int32, baseID int, ls []keyedLeaf) {
	s.fr.n += len(ls)
	for len(ls) > 0 {
		run := ls[:min(len(ls), maxList)]
		sortByPriority(run)
		li := s.fr.newList(parent, baseID, run)
		s.fr.pq.PushSeq(^li, run[0].priority, uint64(baseID+int(run[0].id)))
		ls = ls[len(run):]
	}
}

// sortByPriority sorts one commit's lazy children by descending priority,
// stably. They arrive in node-ID order, so ties keep that order and the
// result is the queue's (priority, node ID) order. They also arrive as a
// few runs already in descending priority, one per target, which is the
// case insertion sort handles in near-linear time.
func sortByPriority(ls []keyedLeaf) {
	if len(ls) > 64 {
		slices.SortStableFunc(ls, func(a, b keyedLeaf) int { return cmp.Compare(b.priority, a.priority) })
		return
	}
	for i := 1; i < len(ls); i++ {
		c := ls[i]
		j := i
		for ; j > 0 && ls[j-1].priority < c.priority; j-- {
			ls[j] = ls[j-1]
		}
		ls[j] = c
	}
}

// compareKeys orders queue keys by precedence: higher priority first, then
// lower node ID.
func compareKeys(p1 float64, id1 uint64, p2 float64, id2 uint64) int {
	if c := cmp.Compare(p2, p1); c != 0 {
		return c
	}
	return cmp.Compare(id1, id2)
}

// dequeue removes the next child from the queue and returns its arena
// slot, surfacing it into a node first when it is a leaf.
func (s *searcher) dequeue() (int32, bool) {
	if s.fr.pq.Len() == 0 {
		return 0, false
	}
	v, _, _ := s.fr.pq.Top()
	s.fr.n--
	if v >= 0 {
		s.fr.pq.Pop()
		return v, true
	}
	li := ^v
	l := s.fr.list(li)
	i := s.ar.alloc(s.leafNode(l, s.fr.leaf(l.start+int32(l.head))))
	l.head++
	if l.head < l.end {
		p, id := s.leafKey(li, s.fr.leaf(l.start+int32(l.head)))
		s.fr.pq.ReplaceTop(v, p, id)
	} else {
		s.fr.pq.Pop()
		s.fr.dropList(li)
	}
	return i, true
}

// cursor is a heap entry as walk copies it: the entry's value and, for a
// list, its queued leaves [at, end) as offsets into its run.
type cursor struct {
	v       int32
	at, end uint16
}

// cursors copies the heap for walk: one 24-byte entry per heap entry,
// whatever the number of leaves.
func (f *frontier) cursors() queue.Queue[cursor] {
	return queue.Map(&f.pq, func(v int32) cursor {
		if v >= 0 {
			return cursor{v: v}
		}
		l := f.list(^v)
		return cursor{v, l.head, l.end}
	})
}

// walk pops w, a copy of the heap made by cursors, to its end and calls f
// for every queued child it stands for, in precedence order — the order
// the queue would pop them. It is dequeue's k-way merge without surfacing:
// a list's entry is re-keyed with its next leaf as its cursor advances.
// f may change the frontier's lists and heap, not its leaves. It gets one
// queuedChild, rewritten for each child (one allocation, not one per
// child), so it must not keep the pointer.
func (s *searcher) walk(w queue.Queue[cursor], f func(c *queuedChild)) {
	var c queuedChild
	for w.Len() > 0 {
		cur, priority, id := w.Top()
		if cur.v >= 0 {
			w.Pop()
			c = queuedChild{priority: priority, id: id, slot: cur.v}
			f(&c)
			continue
		}
		li := ^cur.v
		c = queuedChild{priority: priority, id: id, slot: -1, list: li, leaf: s.fr.list(li).start + int32(cur.at)}
		if cur.at++; cur.at < cur.end {
			p, id := s.leafKey(li, s.fr.leaf(c.leaf+1))
			w.ReplaceTop(cur, p, id)
		} else {
			w.Pop()
		}
		f(&c)
	}
}

// childNode is the node the queued child c stands for; a leaf's comes
// without its state hash (childHash).
func (s *searcher) childNode(c *queuedChild) node {
	if c.slot >= 0 {
		return *s.ar.at(c.slot)
	}
	return s.leafNode(s.fr.list(c.list), s.fr.leaf(c.leaf))
}

// childHash is the state hash of the queued child c.
func (s *searcher) childHash(c *queuedChild) uint64 {
	if c.slot >= 0 {
		return s.ar.at(c.slot).hash
	}
	return s.leafHash(s.fr.list(c.list).parent, s.fr.leaf(c.leaf))
}

// childMem is the memory charge of the queued child c (arena.memOf): a
// leaf is always lazy.
func (s *searcher) childMem(c *queuedChild) int64 {
	if c.slot < 0 {
		return nodeBytes
	}
	return s.ar.memOf(c.slot)
}

// pruneQueue keeps the k queued children of highest precedence and
// discards the rest, lowest-ranked last, calling discard once for each
// dropped child after taking its memory charge off queueBytes. It walks a
// copy of the heap and refills the heap as it goes, in descending order, so
// no push moves an entry. A prune cuts inside lists: the kept leaves of a
// list are a prefix of it, since it is sorted.
func (s *searcher) pruneQueue(k int, discard func(c *queuedChild)) {
	if s.fr.n <= k {
		return
	}
	w := s.fr.cursors()
	s.fr.pq.Clear()
	kept := 0
	s.walk(w, func(c *queuedChild) {
		if kept < k {
			kept++
			switch {
			case c.slot >= 0:
				s.fr.pq.PushSeq(c.slot, c.priority, c.id)
			case c.leaf == s.fr.list(c.list).start+int32(s.fr.list(c.list).head):
				s.fr.pq.PushSeq(^c.list, c.priority, c.id)
			}
			return
		}
		if c.slot < 0 {
			l := s.fr.list(c.list)
			l.end = min(l.end, uint16(c.leaf-l.start))
		}
		s.queueBytes -= s.childMem(c)
		discard(c)
	})
	for li := int32(0); li < s.fr.lists.used; li++ {
		if l := s.fr.list(li); l.size > 0 && l.head == l.end {
			s.fr.dropList(li)
		}
	}
	s.fr.n = k
}

// discardChild releases a queued child dropped by a queue or memory prune:
// its transposition entry is removed (it was never expanded — leaving it
// marked as visited could block the only remaining path to that state) and
// it is released, with every ancestor it leaves without a live child; a
// leaf has no slot of its own to free.
func (s *searcher) discardChild(c *queuedChild) {
	if s.tt != nil {
		s.tt.forget(s.childHash(c), int(s.childNode(c).depth))
	}
	if c.slot >= 0 {
		s.release(c.slot)
	} else {
		s.releaseKid(s.fr.list(c.list).parent)
	}
}
