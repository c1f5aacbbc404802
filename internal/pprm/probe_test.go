package pprm

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/perm"
	"repro/internal/rng"
)

// TestProberMatchesSubstituteProbe checks the Prober against SubstituteProbe
// and SubstituteCopy on n = 1…8, both forms: random functions and sparse
// expansions a few substitutions away from the identity, every target, and
// every factor without the target — the ones the search offers (see
// AppendFactors), the constant, and factors absent from the expansion.
// Delta must equal both deltas, and Hash, called after some Deltas only,
// both hashes. One Prober serves every spec, so its buffers are reused
// across sizes and forms.
func TestProberMatchesSubstituteProbe(t *testing.T) {
	src := rng.New(31)
	var p Prober
	var scratch []bits.Mask
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < 4; trial++ {
			var s *Spec
			if trial%2 == 0 {
				var err error
				if s, err = FromPerm(perm.Random(n, src)); err != nil {
					t.Fatal(err)
				}
			} else {
				s = Identity(n)
				for k := 0; k < n+trial; k++ {
					target := src.Intn(n)
					s.Substitute(target, bits.Mask(src.Intn(1<<uint(n)))&^bits.Bit(target))
				}
			}
			p.Load(s)
			for target := 0; target < n; target++ {
				p.Target(target)
				for factor := bits.Mask(0); factor < 1<<uint(n); factor++ {
					if bits.Has(factor, target) {
						continue
					}
					where := fmt.Sprintf("n=%d trial %d target %s factor %s",
						n, trial, bits.VarName(target), bits.TermString(factor))
					var wantDelta int
					var wantHash uint64
					wantDelta, wantHash, scratch = s.SubstituteProbe(target, factor, scratch)
					child, copyDelta := s.SubstituteCopy(target, factor)
					if d := p.Delta(factor); d != wantDelta || d != copyDelta {
						t.Fatalf("%s: Delta %d, SubstituteProbe %d, SubstituteCopy %d", where, d, wantDelta, copyDelta)
					}
					if src.Intn(3) == 0 {
						continue // Hash is optional after a Delta
					}
					if h := p.Hash(); h != wantHash || h != child.Hash() {
						t.Fatalf("%s: Hash %#x, SubstituteProbe %#x, SubstituteCopy %#x", where, h, wantHash, child.Hash())
					}
				}
			}
		}
	}
}

// TestWordHashBytesMatchBitLoop: the byte-sliced tables give, for every
// single monomial and for random words of every density, the XOR of the
// monomials' Zobrist keys taken one bit at a time.
func TestWordHashBytesMatchBitLoop(t *testing.T) {
	bitLoop := func(w uint64) uint64 {
		var h uint64
		for m := 0; m < wordTerms; m++ {
			if w>>m&1 != 0 {
				h ^= termHash(bits.Mask(m))
			}
		}
		return h
	}
	for m := 0; m < wordTerms; m++ {
		if got, want := wordHashOf(1<<m), termHash(bits.Mask(m)); got != want || wordKey(bits.Mask(m)) != want {
			t.Fatalf("monomial %d: wordHashOf %#x, wordKey %#x, termHash %#x", m, got, wordKey(bits.Mask(m)), want)
		}
	}
	if wordHashOf(0) != 0 {
		t.Fatal("the empty word hashes to a non-zero key")
	}
	src := rng.New(32)
	for i := 0; i < 3000; i++ {
		w := src.Uint64()
		switch i % 3 {
		case 1:
			w &= src.Uint64() // sparser
		case 2:
			w >>= uint(src.Intn(64)) // high bytes zero, as at n ≤ 5
		}
		if got, want := wordHashOf(w), bitLoop(w); got != want {
			t.Fatalf("word %#x: wordHashOf %#x, bit loop %#x", w, got, want)
		}
	}
}
