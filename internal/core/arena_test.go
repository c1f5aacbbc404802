package core

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/queue"
	"repro/internal/rng"
)

// checkArena compares the arena with reachability at a round boundary,
// where no node is popped but not yet committed. A slot must be in use
// exactly when its node is the root, queued, the best solution, or an
// ancestor of one; every live node's kids must equal its live children,
// queued leaves included; the node store must hold exactly the live slots
// and the free ones, and the expansion store exactly the live materialized
// nodes' runs and the free runs (checkRunStore), so every slot and every
// expansion is held by one live node or free, once; and the frontier's
// stores must hold exactly the queued lists and the free ones
// (checkLeafStore).
func checkArena(t *testing.T, s *searcher, where string) {
	t.Helper()
	checkLeafStore(t, s, where)
	a := &s.ar
	used := a.nodes.used
	live := make([]bool, used)
	mark := func(i int32) {
		for ; i >= 0 && !live[i]; i = a.at(i).parent {
			live[i] = true
		}
	}
	kids := make([]int32, used)
	mark(rootSlot)
	s.walk(s.fr.cursors(), func(c *queuedChild) {
		if c.slot >= 0 {
			mark(c.slot)
			return
		}
		p := s.fr.list(c.list).parent
		mark(p)
		kids[p]++ // a leaf has no slot; it counts as a child of its list's parent
	})
	if s.bestSol >= 0 {
		mark(s.bestSol)
	}
	var slots, runs []storeRun
	for i := int32(0); i < used; i++ {
		if !live[i] {
			continue
		}
		slots = append(slots, storeRun{i, 1})
		n := a.at(i)
		if i != rootSlot {
			kids[n.parent]++
		}
		if n.spec >= 0 {
			runs = append(runs, storeRun{n.spec, len(a.run(n.spec))})
		}
	}
	for i := int32(0); i < used; i++ {
		if live[i] && a.at(i).kids != kids[i] {
			t.Fatalf("%s: slot %d has kids=%d, %d live children", where, i, a.at(i).kids, kids[i])
		}
	}
	checkRunStore(t, where+" (node store)", &a.nodes, slots)
	checkRunStore(t, where+" (expansion runs)", &a.runs, runs)
}

// freeSlots is a run store's free stack of one-element runs: the released
// slots of the node store or the list store, next to be reused last.
func freeSlots[T any](r *runStore[T]) []int32 {
	if len(r.freeRuns) < 2 {
		return nil
	}
	return r.freeRuns[1]
}

// queueEntry is one heap entry with its key.
type queueEntry[T any] struct {
	v        T
	priority float64
	id       uint64
}

// queueEntries lists q's entries with their keys in precedence order, by
// popping a copy of q (queue.Map).
func queueEntries[T any](q *queue.Queue[T]) []queueEntry[T] {
	w := queue.Map(q, func(v T) T { return v })
	es := make([]queueEntry[T], 0, w.Len())
	for w.Len() > 0 {
		v, priority, id := w.Top()
		es = append(es, queueEntry[T]{v, priority, id})
		w.Pop()
	}
	return es
}

// storeRun is a run of a runStore: its first element and length.
type storeRun struct {
	start int32
	k     int
}

// checkRunStore checks a run store against the runs its owner holds: each
// held run lies within one page, or alone on an oversized page of exactly
// its length; and the held runs, the free runs and the released oversized
// pages cover the elements handed out exactly once.
func checkRunStore[T any](t *testing.T, where string, r *runStore[T], held []storeRun) {
	t.Helper()
	size := r.pageLen()
	covered := make([]bool, r.used)
	cover := func(start int32, k int, what string) {
		if k > size {
			if p := start >> r.shift; start&int32(size-1) != 0 || len(r.pages[p]) != k {
				t.Fatalf("%s: %s run [%d, +%d) is not alone on its page", where, what, start, k)
			}
			k = size // it stands for its page's elements
		}
		if k <= 0 || int(start)+k > int(r.used) || start>>r.shift != (start+int32(k)-1)>>r.shift {
			t.Fatalf("%s: %s run [%d, +%d) outside the store or across a page", where, what, start, k)
		}
		for i := start; i < start+int32(k); i++ {
			if covered[i] {
				t.Fatalf("%s: element %d in two runs (%s)", where, i, what)
			}
			covered[i] = true
		}
	}
	for _, h := range held {
		cover(h.start, h.k, "held")
	}
	for k, starts := range r.freeRuns {
		for _, start := range starts {
			cover(start, k, "free")
		}
	}
	for p, page := range r.pages {
		if start := int32(p) << r.shift; page == nil && start < r.used {
			cover(start, size, "released")
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("%s: element %d in no run", where, i)
		}
	}
}

// expansionChecker compares every stored expansion with the one the
// substitutions on its path derive from the search's input with
// SubstituteCopy: terms (Equal), state hash and the memory charge (memOf
// against MemBytes, which in slice form counts the capacities the
// SubstituteCopy chain allocated). It derives each node's once, keyed by
// slot and node ID, since a live node's expansion does not change.
type expansionChecker struct {
	root    *pprm.Spec
	derived map[int32]derivedExpansion
}

type derivedExpansion struct {
	id int
	sp *pprm.Spec
}

func (ec *expansionChecker) derive(s *searcher, i int32) *pprm.Spec {
	n := s.ar.at(i)
	if i == rootSlot {
		return ec.root
	}
	if d, ok := ec.derived[i]; ok && d.id == n.id {
		return d.sp
	}
	sp, _ := ec.derive(s, n.parent).SubstituteCopy(int(n.target), n.factor)
	ec.derived[i] = derivedExpansion{n.id, sp}
	return sp
}

func (ec *expansionChecker) check(t *testing.T, s *searcher, where string) {
	t.Helper()
	if ec.derived == nil {
		ec.derived = make(map[int32]derivedExpansion)
	}
	free := make([]bool, s.ar.nodes.used)
	for _, i := range freeSlots(&s.ar.nodes) {
		free[i] = true
	}
	for i := int32(0); i < s.ar.nodes.used; i++ {
		if free[i] || s.ar.at(i).spec < 0 {
			continue
		}
		want := ec.derive(s, i)
		if got := s.expansion(i); !got.Equal(want) || got.Hash() != want.Hash() {
			t.Fatalf("%s: slot %d stores\n%v\nits path derives\n%v", where, i, got, want)
		}
		if got := s.ar.memOf(i) - nodeBytes; got != want.MemBytes() {
			t.Fatalf("%s: slot %d charged %d bytes for its expansion, the SubstituteCopy chain's MemBytes is %d",
				where, i, got, want.MemBytes())
		}
	}
}

// checkLeafStore checks the frontier's bookkeeping: every list in the heap
// is live (queued leaves left, no longer than a page); the list store holds
// exactly the queued lists' headers and the free ones, and the leaf store
// exactly their runs and the free runs (checkRunStore); and the
// queued-children count is right.
func checkLeafStore(t *testing.T, s *searcher, where string) {
	t.Helper()
	f := &s.fr
	var headers, runs []storeRun
	children := 0
	for _, e := range queueEntries(&f.pq) {
		children++
		if e.v >= 0 {
			continue
		}
		li := ^e.v
		l := f.list(li)
		if !(l.head < l.end && l.end <= l.size) {
			t.Fatalf("%s: list %d queued with head %d, end %d, size %d", where, li, l.head, l.end, l.size)
		}
		children += int(l.end-l.head) - 1
		if int(l.size) > leafPageSize {
			t.Fatalf("%s: list %d of %d leaves is longer than a page", where, li, l.size)
		}
		headers = append(headers, storeRun{li, 1})
		runs = append(runs, storeRun{l.start, int(l.size)})
	}
	if children != f.n {
		t.Fatalf("%s: %d queued children, counted %d", where, children, f.n)
	}
	checkRunStore(t, where+" (list store)", &f.lists, headers)
	checkRunStore(t, where+" (leaf store)", &f.leaves, runs)
}

// TestArenaRefcountsMatchReachability runs searches that exercise every
// path through release — cut-off pops, expansions that push nothing,
// superseded solutions, queue and memory prunes, restarts, det-merge
// rounds — and checks the arena against reachability, and every stored
// expansion against its path from the root, at every round boundary.
func TestArenaRefcountsMatchReachability(t *testing.T) {
	specOf := func(n int, seed uint64) *pprm.Spec {
		spec, err := pprm.FromPerm(perm.Random(n, rng.New(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	type run struct {
		name         string
		spec         *pprm.Spec
		opts         func(*Options)
		wantPrunes   bool // the queue must shrink by more than a round's pops
		wantRestarts bool
	}
	var runs []run
	table1 := rng.New(1)
	for i := 0; i < 8; i++ {
		spec, err := pprm.FromPerm(perm.Random(3, table1))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{name: "table1", spec: spec, opts: func(o *Options) { o.TotalSteps = 30000 }})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		runs = append(runs, run{name: "random4", spec: specOf(4, seed), opts: func(o *Options) { o.TotalSteps = 1500 }})
	}
	runs = append(runs,
		run{name: "workers4", spec: specOf(4, 4), opts: func(o *Options) {
			o.TotalSteps = 6000
			o.Workers = 4
		}},
		run{name: "memory-prune", spec: specOf(5, 5), opts: func(o *Options) {
			o.MaxSteps = 0 // only a prune shrinks the queue by more than one pop
			o.TotalSteps = 1500
			o.MaxMemory = 48 << 10
		}, wantPrunes: true},
		run{name: "restarts", spec: specOf(5, 6), opts: func(o *Options) {
			o.MaxSteps = 40
			o.TotalSteps = 2000
		}, wantRestarts: true},
		// Slice form: runs of headers and terms, not coefficient words.
		run{name: "wide", spec: circuit.Random(9, 8, circuit.GT, rng.New(7)).PPRM(), opts: func(o *Options) {
			o.TotalSteps = 300
		}},
	)
	totalSolutions, totalFound := 0, 0
	for _, rc := range runs {
		opts := DefaultOptions()
		rc.opts(&opts)
		var s *searcher
		solutions := 0
		opts.Trace = func(e Event) {
			switch e.Kind {
			case EventSolution:
				solutions++
			case EventRestart:
				// The abandoned frontier is gone: only the root and the
				// new first-move child, not yet queued, hold slots.
				if live := s.ar.nodes.used - int32(len(freeSlots(&s.ar.nodes))); live != 2 {
					t.Fatalf("%s: %d slots live right after a restart, want 2", rc.name, live)
				}
			}
		}
		s = newSearcher(rc.spec, opts)
		ec := expansionChecker{root: rc.spec}
		rounds, shrinks, last := 0, 0, 0
		s.stepHook = func(s *searcher) {
			rounds++
			checkArena(t, s, rc.name)
			ec.check(t, s, rc.name)
			if n := s.fr.n; n < last-s.opts.stride() {
				shrinks++
			}
			last = s.fr.n
		}
		r := s.run()
		if r.Err != nil {
			t.Fatalf("%s: %v", rc.name, r.Err)
		}
		checkArena(t, s, rc.name+" (final)")
		ec.check(t, s, rc.name+" (final)")
		if rounds == 0 {
			t.Fatalf("%s: step hook never ran", rc.name)
		}
		if rc.wantPrunes && shrinks == 0 {
			t.Errorf("%s: the memory ceiling never pruned the queue", rc.name)
		}
		if rc.wantRestarts && r.Restarts < 3 {
			t.Errorf("%s: only %d restarts", rc.name, r.Restarts)
		}
		totalSolutions += solutions
		if r.Found {
			totalFound++
		}
	}
	if totalSolutions <= totalFound {
		t.Errorf("%d solutions in %d solved runs: no best solution was ever superseded", totalSolutions, totalFound)
	}
}
