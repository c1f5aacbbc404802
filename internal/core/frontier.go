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
// The pop order is unchanged. The queue orders children by (priority,
// insertion number), a strict total order, and a child's insertion number
// is reserved when it is committed, exactly as a push would have numbered
// it. Each list is sorted in that order and its entry always carries its
// head's key, so the heap pops the children of all lists and all plain
// entries in one k-way merge: the same sequence a heap of one entry per
// child pops.
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
// elimination). It holds no pointer and is 16 bytes (pinned by
// TestLeafSize), against a 48-byte node plus a 16-byte heap entry.
type leaf struct {
	seq    uint32 // insertion number, reserved at commit
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
// zeroing its first page, and most searches are short: a 3-variable
// search takes about 2 ms.
const (
	leafPageShift = 8
	leafPageSize  = 1 << leafPageShift // leaves per page: 256 × 16 B = 4 KiB
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
// entries are either plain nodes (an arena slot, ≥ 0) or lists (^index,
// < 0), and the store that holds the lists' leaves. Leaves live in the
// pages of a run store, like the arena's expansions, so the store is
// pointer-free and reused across lists: a released run goes on the free
// stack for its length.
type frontier struct {
	pq        queue.Queue[int32]
	lists     []leafList
	freeLists []int32
	leaves    runStore[leaf] // pages of leafPageSize; a list's run fits in one
	seq       uint32         // insertion number of the next queued child
	n         int            // queued children, in lists or not
}

// init sets the leaf store's page size.
func (f *frontier) init() { f.leaves.init(leafPageShift) }

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
	l := leafList{baseID: baseID, parent: parent, start: start, size: uint16(len(ls)), end: uint16(len(ls))}
	if k := len(f.freeLists); k > 0 {
		li := f.freeLists[k-1]
		f.freeLists = f.freeLists[:k-1]
		f.lists[li] = l
		return li
	}
	f.lists = append(f.lists, l)
	return int32(len(f.lists) - 1)
}

// dropList releases list li and its run.
func (f *frontier) dropList(li int32) {
	l := &f.lists[li]
	f.leaves.free(l.start, int(l.size))
	*l = leafList{}
	f.freeLists = append(f.freeLists, li)
}

// clear empties the frontier; the pages stay for reuse.
func (f *frontier) clear() {
	f.pq.Clear()
	f.lists = f.lists[:0]
	f.freeLists = f.freeLists[:0]
	f.leaves.clear()
	f.n = 0
}

// queuedChild names one queued child with its key: a plain node (slot ≥ 0)
// or a leaf (slot −1) of list li in store slot leaf.
type queuedChild struct {
	priority float64
	seq      uint32
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

// leafNode is the node that leaf l, a child of the node in slot parent
// whose ID counts from baseID, stands for, without its state hash (see
// leafHash).
func (s *searcher) leafNode(parent int32, baseID int, l *leaf) node {
	return node{
		id:     baseID + int(l.id),
		parent: parent,
		spec:   -1,
		target: int32(l.target),
		factor: l.factor,
		depth:  s.ar.at(parent).depth + 1,
		terms:  l.terms,
	}
}

// leafHash derives the state hash of leaf l under the node in slot parent
// by probing the parent's expansion.
func (s *searcher) leafHash(parent int32, l *leaf) uint64 {
	var h uint64
	_, h, s.deltaBuf = s.expansion(parent).SubstituteProbe(int(l.target), l.factor, s.deltaBuf)
	return h
}

// nextSeq takes the next insertion number. reserveSeqs has made sure it
// does not wrap.
func (s *searcher) nextSeq() uint32 {
	q := s.fr.seq
	s.fr.seq++
	return q
}

// reserveSeqs makes room for k more insertion numbers: when the 32-bit
// counter would wrap (a search that queues more than 2^32 children), it
// renumbers every queued child 0…n−1 in precedence order, leaves included,
// so every child keeps its rank and later children number above all of
// them.
func (s *searcher) reserveSeqs(k int) {
	if uint64(s.fr.seq)+uint64(k) <= math.MaxUint32 {
		return
	}
	cs := s.queuedInOrder()
	for i := range cs {
		cs[i].seq = uint32(i)
		if cs[i].slot < 0 {
			s.fr.leaf(cs[i].leaf).seq = uint32(i)
		}
	}
	s.rebuildQueue(cs)
	s.fr.seq = uint32(len(cs))
}

// enqueue queues the node in slot i as a plain entry.
func (s *searcher) enqueue(i int32, priority float64) {
	s.reserveSeqs(1)
	s.fr.pq.PushSeq(i, priority, s.nextSeq())
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
		s.fr.pq.PushSeq(^li, run[0].priority, run[0].seq)
		ls = ls[len(run):]
	}
}

// sortByPriority sorts one commit's lazy children by descending priority,
// stably. They arrive in insertion-number order, so ties keep that order
// and the result is the queue's (priority, insertion number) order. They
// also arrive as a few runs already in descending priority, one per
// target, which is the case insertion sort handles in near-linear time.
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
// lower insertion number.
func compareKeys(p1 float64, q1 uint32, p2 float64, q2 uint32) int {
	if c := cmp.Compare(p2, p1); c != 0 {
		return c
	}
	return cmp.Compare(q1, q2)
}

// dequeue removes the next child from the queue and returns its arena
// slot, surfacing it into a node first when it is a leaf.
func (s *searcher) dequeue() (int32, bool) {
	v, ok := s.fr.pq.Peek()
	if !ok {
		return 0, false
	}
	s.fr.n--
	if v >= 0 {
		s.fr.pq.Pop()
		return v, true
	}
	li := ^v
	l := &s.fr.lists[li]
	i := s.ar.alloc(s.leafNode(l.parent, l.baseID, s.fr.leaf(l.start+int32(l.head))))
	l.head++
	if l.head < l.end {
		next := s.fr.leaf(l.start + int32(l.head))
		s.fr.pq.ReplaceTop(s.leafPriority(l.parent, next), next.seq)
	} else {
		s.fr.pq.Pop()
		s.fr.dropList(li)
	}
	return i, true
}

// eachQueued calls f for every queued child, in unspecified order.
func (s *searcher) eachQueued(f func(c *queuedChild)) {
	s.fr.pq.Each(func(v int32, priority float64, seq uint32) {
		if v >= 0 {
			f(&queuedChild{priority: priority, seq: seq, slot: v})
			return
		}
		l := &s.fr.lists[^v]
		for i := l.start + int32(l.head); i < l.start+int32(l.end); i++ {
			lf := s.fr.leaf(i)
			f(&queuedChild{priority: s.leafPriority(l.parent, lf), seq: lf.seq, slot: -1, list: ^v, leaf: i})
		}
	})
}

// queuedInOrder returns every queued child in precedence order — the order
// the queue would pop them.
func (s *searcher) queuedInOrder() []queuedChild {
	cs := make([]queuedChild, 0, s.fr.n)
	s.eachQueued(func(c *queuedChild) { cs = append(cs, *c) })
	slices.SortFunc(cs, func(a, b queuedChild) int { return compareKeys(a.priority, a.seq, b.priority, b.seq) })
	return cs
}

// childNode is the node the queued child c stands for; a leaf's comes
// without its state hash (childHash).
func (s *searcher) childNode(c *queuedChild) node {
	if c.slot >= 0 {
		return *s.ar.at(c.slot)
	}
	l := &s.fr.lists[c.list]
	return s.leafNode(l.parent, l.baseID, s.fr.leaf(c.leaf))
}

// childHash is the state hash of the queued child c.
func (s *searcher) childHash(c *queuedChild) uint64 {
	if c.slot >= 0 {
		return s.ar.at(c.slot).hash
	}
	return s.leafHash(s.fr.lists[c.list].parent, s.fr.leaf(c.leaf))
}

// childMem is the memory charge of the queued child c (arena.memOf): a
// leaf is always lazy.
func (s *searcher) childMem(c *queuedChild) int64 {
	if c.slot < 0 {
		return nodeBytes
	}
	return s.ar.memOf(c.slot)
}

// rebuildQueue refills the heap from cs, the queued children in precedence
// order with their current keys: one entry per plain node and one per list,
// keyed by the list's head. Every list's queued leaves must be in cs.
func (s *searcher) rebuildQueue(cs []queuedChild) {
	s.fr.pq.Clear()
	for i := range cs {
		c := &cs[i]
		switch {
		case c.slot >= 0:
			s.fr.pq.PushSeq(c.slot, c.priority, c.seq)
		case c.leaf == s.fr.lists[c.list].start+int32(s.fr.lists[c.list].head):
			s.fr.pq.PushSeq(^c.list, c.priority, c.seq)
		}
	}
}

// pruneQueue keeps the k queued children of highest precedence and
// discards the rest, lowest-ranked last, calling discard once for each
// dropped child. A prune cuts inside lists: the kept leaves of a list are
// a prefix of it, since it is sorted.
func (s *searcher) pruneQueue(k int, discard func(c *queuedChild)) {
	if s.fr.n <= k {
		return
	}
	cs := s.queuedInOrder()
	for i := range cs[k:] {
		discard(&cs[k+i])
	}
	kept := cs[:k]
	for li := range s.fr.lists {
		if l := &s.fr.lists[li]; l.head < l.end {
			l.end = l.head // re-extended below by each kept leaf
		}
	}
	for i := range kept {
		if c := &kept[i]; c.slot < 0 {
			s.fr.lists[c.list].end++
		}
	}
	for li := range s.fr.lists {
		if l := &s.fr.lists[li]; l.size > 0 && l.head == l.end {
			s.fr.dropList(int32(li))
		}
	}
	s.rebuildQueue(kept)
	s.fr.n = k
}

// discardChild releases a queued child dropped by a queue or memory prune:
// its transposition entry is removed (it was never expanded — leaving it
// marked as visited could block the only remaining path to that state) and
// it is released.
func (s *searcher) discardChild(c *queuedChild) {
	if s.tt != nil {
		s.tt.forget(s.childHash(c), int(s.childNode(c).depth))
	}
	s.releaseChild(c)
}

// releaseChild releases the queued child c, with every ancestor it leaves
// without a live child; a leaf has no slot of its own to free.
func (s *searcher) releaseChild(c *queuedChild) {
	if c.slot >= 0 {
		s.release(c.slot)
	} else {
		s.releaseKid(s.fr.lists[c.list].parent)
	}
}

// dropQueue releases every queued child and empties the frontier (a
// restart).
func (s *searcher) dropQueue() {
	s.eachQueued(s.releaseChild)
	s.fr.clear()
}
