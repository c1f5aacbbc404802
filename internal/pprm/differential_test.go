package pprm

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/perm"
	"repro/internal/rng"
)

// TestSubstituteDifferential cross-checks the substitution kernels against
// independent references on random specs of 3 to 8 variables — both sides of
// the word/slice boundary — for every (target, factor) pair. It uses only
// the exported API, so it holds whatever representation a Spec picks:
//
//   - SubstituteProbe's delta and hash equal SubstituteCopy's term change
//     and the copy's Hash();
//   - every output of the copy equals a newTermSet rebuild from the
//     parent's terms plus the naively computed toggles, hash included;
//   - the copy equals FromPerm of the function with the gate applied;
//   - Sorted() is Terms() ordered by (literal count, mask), for the parent
//     and the copy alike.
func TestSubstituteDifferential(t *testing.T) {
	src := rng.New(21)
	var scratch []bits.Mask
	for n := 3; n <= 8; n++ {
		specs := 4
		if n >= 7 {
			specs = 2
		}
		for trial := 0; trial < specs; trial++ {
			p := perm.Random(n, src)
			s, err := FromPerm(p)
			if err != nil {
				t.Fatal(err)
			}
			checkSortedOrder(t, s)
			for target := 0; target < n; target++ {
				for factor := bits.Mask(0); factor < 1<<uint(n); factor++ {
					if bits.Has(factor, target) {
						continue
					}
					where := fmt.Sprintf("n=%d trial %d target %s factor %s",
						n, trial, bits.VarName(target), bits.TermString(factor))
					var delta int
					var hash uint64
					delta, hash, scratch = s.SubstituteProbe(target, factor, scratch)
					child, wantDelta := s.SubstituteCopy(target, factor)
					if delta != wantDelta || child.Terms() != s.Terms()+wantDelta {
						t.Fatalf("%s: probe delta %d, copy delta %d, term counts %d → %d",
							where, delta, wantDelta, s.Terms(), child.Terms())
					}
					if hash != child.Hash() {
						t.Fatalf("%s: probe hash %#x, copy hash %#x", where, hash, child.Hash())
					}
					for j := range s.Out {
						want := rebuildSubstituted(&s.Out[j], target, factor)
						if !child.Out[j].Equal(&want) || child.Out[j].Hash() != want.Hash() {
							t.Fatalf("%s: output %d is %v, rebuild gives %v",
								where, j, child.Out[j].Terms(), want.Terms())
						}
					}
					fromPerm, err := FromPerm(gateFirst(p, target, factor))
					if err != nil {
						t.Fatal(err)
					}
					if !child.Equal(fromPerm) || child.Hash() != fromPerm.Hash() {
						t.Fatalf("%s: copy differs from FromPerm of the gated function", where)
					}
					if trial == 0 && target == n-1 {
						checkSortedOrder(t, child)
					}
				}
			}
		}
	}
}

// rebuildSubstituted applies v_target = v_target ⊕ factor to one output the
// slow way: toggle (t \ v_target) ∪ factor for each term t holding v_target.
func rebuildSubstituted(ts *TermSet, target int, factor bits.Mask) TermSet {
	terms := ts.Terms()
	masks := append([]bits.Mask(nil), terms...)
	for _, t := range terms {
		if bits.Has(t, target) {
			masks = append(masks, t&^bits.Bit(target)|factor)
		}
	}
	return newTermSet(masks...)
}

// gateFirst returns p ∘ T for the Toffoli gate T with the given target and
// controls: the function whose PPRM a substitution produces.
func gateFirst(p perm.Perm, target int, factor bits.Mask) perm.Perm {
	q := make(perm.Perm, len(p))
	for x := range p {
		y := uint32(x)
		if y&factor == factor {
			y ^= bits.Bit(target)
		}
		q[x] = p[y]
	}
	return q
}

// TestAppendFactorsDifferential checks AppendFactors(dst, v) against
// AppendSorted filtered to the terms without variable v, order included, for
// n = 1…8, every variable and every output, in both forms: the spec's own
// (word form up to six variables) and a slice-form rebuild of each output.
// It also checks that the result extends dst and leaves its prefix alone.
func TestAppendFactorsDifferential(t *testing.T) {
	src := rng.New(24)
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < 3; trial++ {
			s, err := FromPerm(perm.Random(n, src))
			if err != nil {
				t.Fatal(err)
			}
			for j := range s.Out {
				sets := []TermSet{s.Out[j], newTermSet(s.Out[j].Terms()...)}
				if sets[0].isWord != UsesWord(n) || sets[1].isWord {
					t.Fatalf("n=%d: output %d has the wrong forms", n, j)
				}
				for form := range sets {
					ts := &sets[form]
					for v := 0; v < n; v++ {
						var want []bits.Mask
						for _, m := range ts.Sorted() {
							if !bits.Has(m, v) {
								want = append(want, m)
							}
						}
						got := ts.AppendFactors([]bits.Mask{99}, v)
						if got[0] != 99 || !slices.Equal(got[1:], want) {
							t.Fatalf("n=%d trial %d output %d word=%v v=%d: AppendFactors = %v, want [99] + %v",
								n, trial, j, ts.isWord, v, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSortedOrderWideSlices runs checkSortedOrder on random slice-form sets
// of up to 20 variables, so every literal count up to 20 — each class of the
// slice form's counting sort — is covered, the full term included.
func TestSortedOrderWideSlices(t *testing.T) {
	src := rng.New(22)
	for n := 1; n <= 20; n++ {
		for trial := 0; trial < 4; trial++ {
			masks := []bits.Mask{0, 1<<uint(n) - 1}
			for k := src.Intn(200); k > 0; k-- {
				masks = append(masks, bits.Mask(src.Uint64())&(1<<uint(n)-1))
			}
			s := &Spec{N: n, Out: []TermSet{newTermSet(masks...)}}
			if s.Out[0].isWord {
				t.Fatal("newTermSet built a word-form set")
			}
			checkSortedOrder(t, s)
		}
	}
}

// checkSortedOrder checks every output's Sorted() against Terms() sorted by
// (literal count, mask).
func checkSortedOrder(t *testing.T, s *Spec) {
	t.Helper()
	for j := range s.Out {
		want := append([]bits.Mask(nil), s.Out[j].Terms()...)
		slices.SortFunc(want, func(a, b bits.Mask) int {
			if ca, cb := bits.Count(a), bits.Count(b); ca != cb {
				return ca - cb
			}
			return int(a) - int(b)
		})
		got := s.Out[j].Sorted()
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d output %d: Sorted() = %v, want %v", s.N, j, got, want)
		}
		if app := s.Out[j].AppendSorted([]bits.Mask{99}); !slices.Equal(app[1:], want) || app[0] != 99 {
			t.Fatalf("n=%d output %d: AppendSorted = %v, want [99] + %v", s.N, j, app, want)
		}
	}
}
