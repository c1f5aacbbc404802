package pprm

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/perm"
	"repro/internal/rng"
)

// recomputedHash is the from-scratch reference for the incremental hash.
func recomputedHash(ts *TermSet) uint64 {
	var h uint64
	for _, t := range ts.Terms() {
		h ^= termHash(t)
	}
	return h
}

func TestHashIncrementalMatchesRecomputed(t *testing.T) {
	src := rng.New(11)
	var ts TermSet
	for i := 0; i < 2000; i++ {
		ts.Toggle(bits.Mask(src.Intn(64)))
		if got, want := ts.Hash(), recomputedHash(&ts); got != want {
			t.Fatalf("after %d toggles: hash %#x, recomputed %#x", i+1, got, want)
		}
	}
}

func TestHashThroughSubstitute(t *testing.T) {
	src := rng.New(12)
	for trial := 0; trial < 50; trial++ {
		p := perm.Random(4, src)
		s, err := FromPerm(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Out {
			if got, want := s.Out[i].Hash(), recomputedHash(&s.Out[i]); got != want {
				t.Fatalf("FromPerm out %d: hash %#x, recomputed %#x", i, got, want)
			}
		}
		// Random in-place substitutions keep the incremental hash exact.
		for step := 0; step < 20; step++ {
			target := src.Intn(4)
			factor := bits.Mask(src.Intn(16)) &^ bits.Bit(target)
			s.Substitute(target, factor)
			for i := range s.Out {
				if got, want := s.Out[i].Hash(), recomputedHash(&s.Out[i]); got != want {
					t.Fatalf("step %d out %d: hash %#x, recomputed %#x", step, i, got, want)
				}
			}
		}
	}
}

func TestSubstituteProbeMatchesSubstituteCopy(t *testing.T) {
	src := rng.New(13)
	var scratch []bits.Mask
	for trial := 0; trial < 50; trial++ {
		s, err := FromPerm(perm.Random(4, src))
		if err != nil {
			t.Fatal(err)
		}
		for target := 0; target < 4; target++ {
			for factor := bits.Mask(0); factor < 16; factor++ {
				if factor&bits.Bit(target) != 0 {
					continue
				}
				var delta int
				var hash uint64
				delta, hash, scratch = s.SubstituteProbe(target, factor, scratch)
				child, wantDelta := s.SubstituteCopy(target, factor)
				if delta != wantDelta {
					t.Fatalf("probe delta %d, copy delta %d (target %d factor %s)",
						delta, wantDelta, target, bits.TermString(factor))
				}
				if hash != child.Hash() {
					t.Fatalf("probe hash %#x, copy hash %#x (target %d factor %s)",
						hash, child.Hash(), target, bits.TermString(factor))
				}
			}
		}
	}
}

func TestSpecHashPositionDependent(t *testing.T) {
	// v0'=a, v1'=b vs. the swap v0'=b, v1'=a: same multiset of TermSets on
	// different outputs must hash differently.
	id := Identity(2)
	swap := NewSpec(2)
	swap.Out[0].Toggle(bits.Bit(1))
	swap.Out[1].Toggle(bits.Bit(0))
	if id.Hash() == swap.Hash() {
		t.Fatalf("identity and swap hash identically: %#x", id.Hash())
	}
}

func TestSpecHashEqualSpecsAgree(t *testing.T) {
	src := rng.New(14)
	s, err := FromPerm(perm.Random(4, src))
	if err != nil {
		t.Fatal(err)
	}
	// A clone built by a completely different toggle order hashes equally.
	rebuilt := NewSpec(4)
	for i := range s.Out {
		terms := append([]bits.Mask(nil), s.Out[i].Terms()...)
		for _, j := range src.Perm(len(terms)) {
			rebuilt.Out[i].Toggle(terms[j])
		}
	}
	if !s.Equal(rebuilt) {
		t.Fatal("rebuilt spec differs")
	}
	if s.Hash() != rebuilt.Hash() {
		t.Fatalf("equal specs hash differently: %#x vs %#x", s.Hash(), rebuilt.Hash())
	}
}

func TestEqualAllocationFree(t *testing.T) {
	a := newTermSet(0b011, 0b101, 0b110, 0b001)
	b := a.Clone()
	c := newTermSet(0b011, 0b101, 0b111) // different hash
	if !a.Equal(&b) || a.Equal(&c) {
		t.Fatal("Equal gives wrong answers")
	}
	if n := testing.AllocsPerRun(100, func() {
		if !a.Equal(&b) {
			t.Fatal("equal sets reported unequal")
		}
	}); n != 0 {
		t.Fatalf("Equal on equal sets allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if a.Equal(&c) {
			t.Fatal("unequal sets reported equal")
		}
	}); n != 0 {
		t.Fatalf("Equal hash fast path allocates %v times per run", n)
	}
}

// TestWordKernelsAllocationFree pins the search's per-candidate work on a
// word-form spec (n ≤ 6) — probe, Prober, presentation-order walk, factor
// enumeration, membership and equality — at zero allocations, and the
// slice-form presentation-order walk, factor enumeration and Prober (n ≥
// 7) into buffers that already have the capacity.
func TestWordKernelsAllocationFree(t *testing.T) {
	s, err := FromPerm(perm.Random(6, rng.New(15)))
	if err != nil {
		t.Fatal(err)
	}
	other := s.Clone()
	buf := make([]bits.Mask, 0, 64)
	var scratch []bits.Mask
	if n := testing.AllocsPerRun(100, func() {
		for target := range s.Out {
			buf = s.Out[target].AppendSorted(buf[:0])
			for _, f := range buf {
				if !bits.Has(f, target) {
					_, _, scratch = s.SubstituteProbe(target, f, scratch)
				}
			}
			if !s.Out[target].Has(buf[0]) || !s.Out[target].Equal(&other.Out[target]) {
				t.Fatal("word-form set lost a term")
			}
			buf = s.Out[target].AppendFactors(buf[:0], target)
		}
	}); n != 0 {
		t.Fatalf("word-form probe loop allocates %v times per run", n)
	}
	var p Prober
	proberLoop := func(s *Spec) func() {
		return func() {
			p.Load(s)
			for target := range s.Out {
				p.Target(target)
				buf = s.Out[target].AppendFactors(buf[:0], target)
				for _, f := range buf {
					p.Delta(f)
					p.Hash()
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, proberLoop(s)); n != 0 {
		t.Fatalf("word-form Prober loop allocates %v times per run", n)
	}

	wide, err := FromPerm(perm.Random(8, rng.New(16)))
	if err != nil {
		t.Fatal(err)
	}
	if wide.Out[0].isWord {
		t.Fatal("an 8-variable spec is in word form")
	}
	buf = make([]bits.Mask, 0, 1<<8)
	if n := testing.AllocsPerRun(100, func() {
		for target := range wide.Out {
			buf = wide.Out[target].AppendSorted(buf[:0])
			buf = wide.Out[target].AppendFactors(buf[:0], target)
		}
	}); n != 0 {
		t.Fatalf("slice-form AppendSorted or AppendFactors allocates %v times per run", n)
	}
	proberLoop(wide)() // grows the Prober's buffers
	if n := testing.AllocsPerRun(5, proberLoop(wide)); n != 0 {
		t.Fatalf("slice-form Prober loop allocates %v times per run", n)
	}
}

// TestSortedAfterMutationAndClone: Sorted reflects a Toggle made after an
// earlier call, an earlier result is not rewritten by a later mutation,
// and a clone's mutations stay out of the original.
func TestSortedAfterMutationAndClone(t *testing.T) {
	ts := newTermSet(0b111, 0b001, 0b110)
	first := ts.Sorted()
	ts.Toggle(0b010)
	second := ts.Sorted()
	if len(second) != 4 {
		t.Fatalf("Sorted after Toggle has %d terms, want 4", len(second))
	}
	if len(first) != 3 || first[0] != 0b001 {
		t.Fatalf("pre-mutation Sorted slice mutated: %v", first)
	}

	cl := ts.Clone()
	cl.Toggle(0b001) // removes a term from the clone only
	if len(ts.Sorted()) != 4 || len(cl.Sorted()) != 3 {
		t.Fatalf("clone leaked a mutation: parent %d terms, clone %d",
			len(ts.Sorted()), len(cl.Sorted()))
	}
}
