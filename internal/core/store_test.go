package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// TestExpansionStoreSize keeps the expansion slab and popped free of
// pointers, so slab pages are noscan allocations and a popped node carries
// its expansion by value, and pins a word-form slab entry at 2n words.
func TestExpansionStoreSize(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(arena{}.slab), reflect.TypeOf(popped{})} {
		if typ.Kind() == reflect.Slice {
			typ = typ.Elem().Elem() // a slab page's element
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
		if a.specs != nil {
			t.Errorf("n=%d: a word-form expansion went to the side table", n)
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
