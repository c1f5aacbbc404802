package core

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
)

// checkArena compares the arena with reachability at a round boundary,
// where no node is popped but not yet committed. A slot must be in use
// exactly when its node is the root, queued, the best solution, or an
// ancestor of one; every live node's kids must equal its live children,
// queued leaves included; every expansion must be held by exactly one live
// materialized node or be free, once (slab entries in word form, runs in
// slice form); and the leaf store must hold exactly the queued lists' runs
// and the free runs (checkLeafStore).
func checkArena(t *testing.T, s *searcher, where string) {
	t.Helper()
	checkLeafStore(t, s, where)
	a := &s.ar
	free := make([]bool, a.used)
	for _, i := range a.free {
		if free[i] {
			t.Fatalf("%s: slot %d freed twice", where, i)
		}
		free[i] = true
	}
	live := make([]bool, a.used)
	mark := func(i int32) {
		for ; i >= 0 && !live[i]; i = a.at(i).parent {
			live[i] = true
		}
	}
	kids := make([]int32, a.used)
	mark(rootSlot)
	s.eachQueued(func(c *queuedChild) {
		if c.slot >= 0 {
			mark(c.slot)
			return
		}
		p := s.fr.lists[c.list].parent
		mark(p)
		kids[p]++ // a leaf has no slot; it counts as a child of its list's parent
	})
	if s.bestSol >= 0 {
		mark(s.bestSol)
	}
	var runs []storeRun
	var owned []bool
	if a.wordForm() {
		owned = make([]bool, a.exps)
	}
	for i := int32(0); i < a.used; i++ {
		if live[i] == free[i] {
			t.Fatalf("%s: slot %d live=%v free=%v", where, i, live[i], free[i])
		}
		if !live[i] {
			continue
		}
		n := a.at(i)
		if i != rootSlot {
			kids[n.parent]++
		}
		switch {
		case n.spec < 0:
		case !a.wordForm():
			runs = append(runs, storeRun{n.spec, len(a.run(n.spec))})
		case n.spec >= a.exps:
			t.Fatalf("%s: slot %d names expansion slot %d of %d", where, i, n.spec, a.exps)
		case owned[n.spec]:
			t.Fatalf("%s: slot %d shares expansion slot %d", where, i, n.spec)
		default:
			owned[n.spec] = true
		}
	}
	for i := int32(0); i < a.used; i++ {
		if live[i] && a.at(i).kids != kids[i] {
			t.Fatalf("%s: slot %d has kids=%d, %d live children", where, i, a.at(i).kids, kids[i])
		}
	}
	if !a.wordForm() {
		if a.slab != nil || a.exps != 0 {
			t.Fatalf("%s: slice-form arena with %d slab pages for %d expansions", where, len(a.slab), a.exps)
		}
		checkRunStore(t, where+" (expansion runs)", &a.runs, runs)
		return
	}
	if a.runs.pages != nil || len(a.slab)*slabPageSize < int(a.exps) {
		t.Fatalf("%s: word-form arena with %d run pages, %d slab pages for %d expansions",
			where, len(a.runs.pages), len(a.slab), a.exps)
	}
	freeExp := make([]bool, a.exps)
	for _, j := range a.freeExps {
		if freeExp[j] {
			t.Fatalf("%s: expansion slot %d freed twice", where, j)
		}
		freeExp[j] = true
	}
	for j := range owned {
		if owned[j] == freeExp[j] {
			t.Fatalf("%s: expansion slot %d owned by a live node=%v, free=%v", where, j, owned[j], freeExp[j])
		}
	}
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
// SubstituteCopy: terms (Equal), state hash and, for a slice-form run, the
// memory charge (memOf against MemBytes, which counts the capacities the
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
	free := make([]bool, s.ar.used)
	for _, i := range s.ar.free {
		free[i] = true
	}
	for i := int32(0); i < s.ar.used; i++ {
		if free[i] || s.ar.at(i).spec < 0 {
			continue
		}
		want := ec.derive(s, i)
		if got := s.expansion(i); !got.Equal(want) || got.Hash() != want.Hash() {
			t.Fatalf("%s: slot %d stores\n%v\nits path derives\n%v", where, i, got, want)
		}
		if got := s.ar.memOf(i) - nodeBytes; !s.ar.wordForm() && got != want.MemBytes() {
			t.Fatalf("%s: slot %d charged %d bytes for its expansion, the SubstituteCopy chain's MemBytes is %d",
				where, i, got, want.MemBytes())
		}
	}
}

// checkLeafStore checks the frontier's bookkeeping: every list in the heap
// is live (queued leaves left, no longer than a page) and every other list
// header is free; the live lists' runs and the free runs cover the store's
// used slots exactly once (checkRunStore); and the queued-children count is
// right.
func checkLeafStore(t *testing.T, s *searcher, where string) {
	t.Helper()
	f := &s.fr
	inHeap := make([]bool, len(f.lists))
	var runs []storeRun
	children := 0
	f.pq.Each(func(v int32, _ float64, _ uint32) {
		children++
		if v >= 0 {
			return
		}
		li := ^v
		if inHeap[li] {
			t.Fatalf("%s: list %d queued twice", where, li)
		}
		inHeap[li] = true
		l := &f.lists[li]
		if !(l.head < l.end && l.end <= l.size) {
			t.Fatalf("%s: list %d queued with head %d, end %d, size %d", where, li, l.head, l.end, l.size)
		}
		children += int(l.end-l.head) - 1
		if int(l.size) > leafPageSize {
			t.Fatalf("%s: list %d of %d leaves is longer than a page", where, li, l.size)
		}
		runs = append(runs, storeRun{l.start, int(l.size)})
	})
	if children != f.n {
		t.Fatalf("%s: %d queued children, counted %d", where, children, f.n)
	}
	free := make([]bool, len(f.lists))
	for _, li := range f.freeLists {
		if free[li] || inHeap[li] {
			t.Fatalf("%s: list %d free twice or while queued", where, li)
		}
		free[li] = true
	}
	for li := range f.lists {
		if !inHeap[li] && !free[li] {
			t.Fatalf("%s: list %d neither queued nor free", where, li)
		}
	}
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
		// Slice form: the expansions are runs, not slab entries; the
		// checker also compares their memory charge.
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
				if live := s.ar.used - int32(len(s.ar.free)); live != 2 {
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
