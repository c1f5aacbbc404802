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

// TestExpansionStoreSize keeps the run store's pages and popped free of
// pointers, so run pages are noscan allocations and a popped node is plain
// words, and pins a stored expansion at the run pprm.Spec.AppendRun
// writes: in word form four words per output, its coefficient word (low
// half first) and its hash.
func TestExpansionStoreSize(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(arena{}.runs.pages).Elem().Elem(), reflect.TypeOf(popped{})} {
		if !pointerFree(typ) {
			t.Errorf("%s holds a pointer; the expansion store must stay pointer-free", typ)
		}
	}
	for _, n := range []int{1, 4, 6, 7, 12, 16} {
		var a arena
		a.init(n)
		spec := circuit.Random(n, 8, circuit.GT, rng.New(uint64(n))).PPRM()
		r := a.run(a.putRun(spec.AppendRun(nil)))
		if want := spec.AppendRun(nil); !slices.Equal(r, want) {
			t.Errorf("n=%d: run of %d words, AppendRun writes %d", n, len(r), len(want))
		}
		view := pprm.NewSpec(n)
		view.LoadRun(r)
		if !view.Equal(spec) || view.Hash() != spec.Hash() {
			t.Errorf("n=%d: the stored run does not load back as its spec", n)
		}
		if !pprm.UsesWord(n) {
			continue
		}
		if len(r) != 4*n {
			t.Fatalf("n=%d: word-form run of %d words, want %d", n, len(r), 4*n)
		}
		for i := range spec.Out {
			var want uint64
			for _, m := range spec.Out[i].Terms() {
				want |= 1 << m
			}
			if got := uint64(r[4*i]) | uint64(r[4*i+1])<<32; got != want {
				t.Errorf("n=%d: output %d's first two words are %#x, its coefficient word %#x", n, i, got, want)
			}
		}
	}
}

// TestTranspoSlotSize pins the transposition table's slot at 9 bytes: the
// per-slot arrays are transpo's slice fields (an 8-byte key and a 1-byte
// depth), and their elements must hold no pointer, so the arrays are
// noscan allocations.
func TestTranspoSlotSize(t *testing.T) {
	typ := reflect.TypeOf(transpo{})
	var slot uintptr
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		if !pointerFree(f.Type.Elem()) {
			t.Errorf("transpo.%s holds %s, which holds a pointer; the slot arrays must stay pointer-free", f.Name, f.Type.Elem())
		}
		slot += f.Type.Elem().Size()
	}
	if slot != 9 {
		t.Errorf("a transposition slot is %d bytes, want 9 (an 8-byte key and a 1-byte depth)", slot)
	}
}

// TestSearchAllocations pins the search's allocation rate in both forms,
// counting the arena, queue and table growth: a 2,000-step 4-variable
// search (word form) allocates fewer than 0.3 times per expansion, and a
// seeded 5,000-step search of a Table V-style function (a random 12-wire
// cascade, slice form) fewer than once. Storing an expansion as a
// *pprm.Spec cost about two allocations each in word form and several in
// slice form.
func TestSearchAllocations(t *testing.T) {
	perm4, err := pprm.FromPerm(perm.Random(4, rng.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec     *pprm.Spec
		maxGates int
		steps    int
		bound    float64
	}{
		{perm4, 0, 2000, 0.3},
		{circuit.Random(12, 10, circuit.GT, rng.New(5)).PPRM(), 40, 5000, 1},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.spec.N), func(t *testing.T) {
			opts := DefaultOptions()
			opts.MaxGates = tc.maxGates
			opts.TotalSteps = tc.steps
			s := newSearcher(tc.spec, opts)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r := s.run()
			runtime.ReadMemStats(&after)
			if r.Steps != opts.TotalSteps {
				t.Fatalf("search stopped after %d steps (%v)", r.Steps, r.StopReason)
			}
			if per := float64(after.Mallocs-before.Mallocs) / float64(r.Steps); per >= tc.bound {
				t.Errorf("%.2f allocations per expansion, want fewer than %v", per, tc.bound)
			}
		})
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
	if len(got.ar.nodes.pages) > len(live.ar.nodes.pages) || got.fr.pq.Len() > live.fr.pq.Len() {
		t.Errorf("restored search holds %d arena pages and %d heap entries, the live one %d and %d",
			len(got.ar.nodes.pages), got.fr.pq.Len(), len(live.ar.nodes.pages), live.fr.pq.Len())
	}
	checkArena(t, got, "restored")
}

// BenchmarkGenerate measures one node's expansion, generate plus commit,
// on the search's own queue: random 3- and 4-variable functions (word
// form) and a 12-wire random cascade (slice form). The -solved cases run
// after the search's first solution, so the bound is tight and generate
// filters most candidates. Nodes too deep to expand are released, as run
// does. The search starts over when its queue runs dry or grows past 2^14
// children.
func BenchmarkGenerate(b *testing.B) {
	random := func(n int) *pprm.Spec {
		spec, err := pprm.FromPerm(perm.Random(n, rng.New(1)))
		if err != nil {
			b.Fatal(err)
		}
		return spec
	}
	perm3, perm4 := random(3), random(4)
	for _, bc := range []struct {
		name   string
		spec   *pprm.Spec
		solved bool
	}{
		{"n=3", perm3, false},
		{"n=3-solved", perm3, true},
		{"n=4", perm4, false},
		{"n=4-solved", perm4, true},
		{"n=12", circuit.Random(12, 8, circuit.GT, rng.New(1)).PPRM(), false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var s *searcher
			var p popped
			var gr genResult
			expand := func() bool {
				for {
					pi, ok := s.dequeue()
					if !ok {
						return false
					}
					s.queueBytes -= s.ar.memOf(pi)
					if int(s.ar.at(pi).depth) >= s.bestDepth-1 {
						s.release(pi)
						continue
					}
					s.pop(pi, &p, &gr)
					s.generate(&p, &gr, s.bestDepth)
					s.commit(pi, &gr)
					return true
				}
			}
			for i := 0; i < b.N; i++ {
				for s == nil || s.fr.n > 1<<14 || !expand() {
					b.StopTimer()
					s = newSearcher(bc.spec, DefaultOptions())
					s.begin()
					for bc.solved && s.bestSol < 0 {
						if !expand() {
							b.Fatal("the queue ran dry before the first solution")
						}
					}
					b.StartTimer()
				}
			}
		})
	}
}

// TestRunStoreStaysBounded: in searches with restarts and memory prunes,
// slice-form (11–13 wires) and word-form (4 variables), the run store
// hands out no more than a small multiple of the most the live expansions
// held at once since the last restart. A run is reused only by one of the
// same length, and a restart starts the store afresh.
func TestRunStoreStaysBounded(t *testing.T) {
	const bound = 2
	perm4, err := pprm.FromPerm(perm.Random(4, rng.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	type search struct {
		spec      *pprm.Spec
		maxGates  int // low enough that no solution stops the restarts
		maxMemory int64
	}
	runs := []search{{perm4, 8, 32 << 10}}
	for seed := uint64(1); seed <= 3; seed++ {
		runs = append(runs, search{circuit.Random(10+int(seed), 20, circuit.GT, rng.New(seed)).PPRM(), 40, 256 << 10})
	}
	for _, rc := range runs {
		spec := rc.spec
		opts := DefaultOptions()
		opts.MaxGates = rc.maxGates
		opts.MaxSteps = 100
		opts.TotalSteps = 1500
		opts.MaxMemory = rc.maxMemory
		s := newSearcher(spec, opts)
		worst, prunes, peak, last := 0.0, 0, 0, 0
		s.stepHook = func(s *searcher) {
			if s.stepsSinceRestart == 0 {
				peak = 0
			}
			free := make([]bool, s.ar.nodes.used)
			for _, i := range freeSlots(&s.ar.nodes) {
				free[i] = true
			}
			live := 0
			for i := int32(0); i < s.ar.nodes.used; i++ {
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
				t.Fatalf("n=%d step %d: %d run elements handed out, at most %d live since the last restart",
					spec.N, s.steps, s.ar.runs.used, peak)
			}
		}
		r := s.run()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		t.Logf("n=%d: worst %.2f, %d restarts, %d prunes", spec.N, worst, r.Restarts, prunes)
		if r.Restarts == 0 || prunes == 0 {
			t.Errorf("n=%d: %d restarts and %d prunes: the search exercised neither", spec.N, r.Restarts, prunes)
		}
	}
}
