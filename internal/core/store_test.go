package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// TestExpansionStoreSize keeps the expansion slab, the slice-form run
// store and popped free of pointers, so slab and run pages are noscan
// allocations and a popped node carries its expansion by value, and pins a
// word-form slab entry at 2n words and a slice-form run at what
// pprm.Spec.AppendRun writes.
func TestExpansionStoreSize(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(arena{}.slab), reflect.TypeOf(arena{}.runs.pages), reflect.TypeOf(popped{})} {
		if typ.Kind() == reflect.Slice {
			typ = typ.Elem().Elem() // a page's element
		}
		if !pointerFree(typ) {
			t.Errorf("%s holds a pointer; the expansion store must stay pointer-free", typ)
		}
	}
	if !pprm.UsesWord(maxWords/2) || pprm.UsesWord(maxWords/2+1) {
		t.Errorf("popped carries %d words, not 2 per output of the widest word-form spec", maxWords)
	}
	for n := 1; n <= maxWords/2; n++ {
		var a arena
		a.init(n)
		spec, err := pprm.FromPerm(perm.Random(n, rng.New(uint64(n))))
		if err != nil {
			t.Fatal(err)
		}
		j := a.putSpec(spec)
		if got := len(a.words(j)); got != 2*n {
			t.Errorf("n=%d: slab entry of %d words, want %d", n, got, 2*n)
		}
		if a.runs.pages != nil {
			t.Errorf("n=%d: a word-form expansion went to the run store", n)
		}
	}
	for _, n := range []int{7, 12, 16} {
		var a arena
		a.init(n)
		spec := circuit.Random(n, 8, circuit.GT, rng.New(uint64(n))).PPRM()
		j := a.putSpec(spec)
		if got, want := a.run(j), spec.AppendRun(nil); !slices.Equal(got, want) {
			t.Errorf("n=%d: run of %d words, AppendRun writes %d", n, len(got), len(want))
		}
		if a.slab != nil {
			t.Errorf("n=%d: a slice-form expansion went to the slab", n)
		}
	}
}

// TestWordSearchAllocations pins the word-form search's allocation rate: a
// 2,000-step 4-variable search allocates fewer than 0.3 times per
// expansion, counting the arena, queue and table growth. Storing an
// expansion as a *pprm.Spec cost about two allocations each.
func TestWordSearchAllocations(t *testing.T) {
	spec, err := pprm.FromPerm(perm.Random(4, rng.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.TotalSteps = 2000
	s := newSearcher(spec, opts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := s.run()
	runtime.ReadMemStats(&after)
	if r.Steps != opts.TotalSteps {
		t.Fatalf("search stopped after %d steps (%v)", r.Steps, r.StopReason)
	}
	if per := float64(after.Mallocs-before.Mallocs) / float64(r.Steps); per >= 0.3 {
		t.Errorf("%.2f allocations per expansion, want fewer than 0.3", per)
	}
}

// TestRunStoreReusesRuns drives a run store with small pages through
// random allocations and releases, oversized runs and a clear, checking
// after each step that the held runs, the free runs and the released pages
// cover what was handed out exactly once (checkRunStore), that a run keeps
// its contents while held, and that a released run of the same length is
// reused before the store grows.
func TestRunStoreReusesRuns(t *testing.T) {
	var r runStore[uint32]
	r.init(4) // 16-element pages
	src := rng.New(9)
	var held []storeRun
	fill := func(h storeRun) {
		run := r.tail(h.start)[:h.k]
		for i := range run {
			run[i] = uint32(h.start) + uint32(i)
		}
	}
	for step := 0; step < 2000; step++ {
		switch {
		case step == 1000:
			r.clear()
			held = held[:0]
		case len(held) > 0 && src.Intn(2) == 0:
			i := src.Intn(len(held))
			h := held[i]
			for k, v := range r.tail(h.start)[:h.k] {
				if v != uint32(h.start)+uint32(k) {
					t.Fatalf("step %d: run [%d, +%d) lost its contents", step, h.start, h.k)
				}
			}
			r.free(h.start, h.k)
			held = append(held[:i], held[i+1:]...)
			if h.k <= r.pageLen() {
				used := r.used
				if again := r.alloc(h.k); again != h.start || r.used != used {
					t.Fatalf("step %d: a released run of %d was not reused", step, h.k)
				}
				fill(h)
				held = append(held, h)
			}
		default:
			k := 1 + src.Intn(20) // up to an oversized run
			h := storeRun{r.alloc(k), k}
			fill(h)
			held = append(held, h)
		}
		checkRunStore(t, fmt.Sprintf("step %d", step), &r, held)
	}
}

// TestSliceSearchAllocations pins the slice-form search's allocation
// rate: a seeded 5,000-step search of a Table V-style function (a random
// 12-wire cascade) allocates fewer than once per expansion, counting the
// arena, queue and table growth. Storing an expansion as a *pprm.Spec
// (SubstituteCopy) cost several allocations each.
func TestSliceSearchAllocations(t *testing.T) {
	spec := circuit.Random(12, 10, circuit.GT, rng.New(5)).PPRM()
	opts := DefaultOptions()
	opts.MaxGates = 40
	opts.TotalSteps = 5000
	s := newSearcher(spec, opts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := s.run()
	runtime.ReadMemStats(&after)
	if r.Steps != opts.TotalSteps {
		t.Fatalf("search stopped after %d steps (%v)", r.Steps, r.StopReason)
	}
	if per := float64(after.Mallocs-before.Mallocs) / float64(r.Steps); per >= 1 {
		t.Errorf("%.2f allocations per expansion, want fewer than 1", per)
	}
}

// TestResumeQueuesLeaves: a restored search queues lazy siblings as leaf
// lists, as the search does, so it holds no more arena pages or heap
// entries than the run it continues.
func TestResumeQueuesLeaves(t *testing.T) {
	spec, err := pprm.FromPerm(perm.Random(4, rng.New(3)))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.TotalSteps = 20000
	live := newSearcher(spec, opts)
	live.run()
	st, err := snapshot.Decode(snapshot.Encode(live.exportState()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := restoreSearcher(spec, opts, st)
	if err != nil {
		t.Fatal(err)
	}
	if got.fr.n != live.fr.n || got.fr.n < 10000 {
		t.Fatalf("%d children queued, restored %d", live.fr.n, got.fr.n)
	}
	if len(got.ar.pages) > len(live.ar.pages) || got.fr.pq.Len() > live.fr.pq.Len() {
		t.Errorf("restored search holds %d arena pages and %d heap entries, the live one %d and %d",
			len(got.ar.pages), got.fr.pq.Len(), len(live.ar.pages), live.fr.pq.Len())
	}
	checkArena(t, got, "restored")
}

// BenchmarkGenerate measures one node's expansion, generate plus commit,
// on the search's own queue: a random 4-variable function (word form) and
// a 12-wire random cascade (slice form). The search starts over when its
// queue runs dry or grows past 2^14 children.
func BenchmarkGenerate(b *testing.B) {
	perm4, err := pprm.FromPerm(perm.Random(4, rng.New(1)))
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range []*pprm.Spec{perm4, circuit.Random(12, 8, circuit.GT, rng.New(1)).PPRM()} {
		b.Run(fmt.Sprintf("n=%d", spec.N), func(b *testing.B) {
			b.ReportAllocs()
			var s *searcher
			var p popped
			var gr genResult
			for i := 0; i < b.N; i++ {
				if s == nil || s.fr.n == 0 || s.fr.n > 1<<14 {
					b.StopTimer()
					s = newSearcher(spec, DefaultOptions())
					s.begin()
					b.StartTimer()
				}
				pi, _ := s.dequeue()
				s.queueBytes -= s.ar.memOf(pi)
				s.pop(pi, &p, &gr)
				s.generate(&p, &gr)
				s.commit(pi, &gr)
			}
		})
	}
}

// TestRunStoreStaysBounded: in slice-form searches with restarts and
// memory prunes, the run store hands out no more than a small multiple of
// the most the live expansions held at once since the last restart. A run
// is reused only by one of the same length, and a restart starts the store
// afresh.
func TestRunStoreStaysBounded(t *testing.T) {
	const bound = 2
	worst, restarts, prunes := 0.0, 0, 0
	for seed := uint64(1); seed <= 3; seed++ {
		spec := circuit.Random(10+int(seed), 20, circuit.GT, rng.New(seed)).PPRM()
		opts := DefaultOptions()
		opts.MaxGates = 40
		opts.MaxSteps = 100
		opts.TotalSteps = 1500
		opts.MaxMemory = 256 << 10
		s := newSearcher(spec, opts)
		peak, last := 0, 0
		s.stepHook = func(s *searcher) {
			if s.stepsSinceRestart == 0 {
				peak = 0
			}
			free := make([]bool, s.ar.used)
			for _, i := range s.ar.free {
				free[i] = true
			}
			live := 0
			for i := int32(0); i < s.ar.used; i++ {
				if j := s.ar.at(i).spec; !free[i] && j >= 0 {
					live += len(s.ar.run(j))
				}
			}
			peak = max(peak, live)
			if s.stepsSinceRestart > 0 && s.fr.n < last-s.opts.stride() {
				prunes++ // only a memory prune shrinks the queue by more than a round's pops
			}
			last = s.fr.n
			ratio := float64(s.ar.runs.used) / float64(peak)
			worst = max(worst, ratio)
			if ratio > bound {
				t.Fatalf("seed %d step %d: %d run elements handed out, at most %d live since the last restart",
					seed, s.steps, s.ar.runs.used, peak)
			}
		}
		r := s.run()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		restarts += r.Restarts
	}
	t.Logf("worst %.2f, %d restarts, %d prunes", worst, restarts, prunes)
	if restarts == 0 || prunes == 0 {
		t.Errorf("%d restarts and %d prunes: the searches exercised neither", restarts, prunes)
	}
}
