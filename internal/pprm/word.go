package pprm

import (
	mbits "math/bits"

	"repro/internal/bits"
)

// Word-form kernels. An expansion of at most wordVars variables has at most
// 2^6 = 64 monomials, so its PPRM coefficients fit in one uint64 with bit m
// the coefficient of monomial m — the dense Reed–Muller vector of Younes &
// Miller. Every operation the search needs is then a few word operations:
//
//   - substitution v_t = v_t ⊕ f: the terms containing v_t, with v_t removed,
//     are T = (w & has[t]) >> 2^t; multiplying them by f is one masked
//     shift-XOR per factor variable (a term that already holds the variable
//     stays, one that lacks it moves up by 2^j, and coinciding terms cancel
//     in pairs); the result is w ^ T;
//   - the term-count change is a popcount difference and the hash change is
//     the XOR of wordHash over T's bits;
//   - the presentation order is a walk of w & popClass[k] for k = 0…6.

const (
	wordVars  = 6             // largest variable count stored in word form
	wordTerms = 1 << wordVars // monomials in a word
)

// has[j] is the set of monomials that contain variable j.
var has = [wordVars]uint64{
	0xaaaaaaaaaaaaaaaa,
	0xcccccccccccccccc,
	0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00,
	0xffff0000ffff0000,
	0xffffffff00000000,
}

var (
	popClass [wordVars + 1]uint64 // popClass[k]: monomials of k literals
	wordHash [wordTerms]uint64    // termHash of every monomial
)

func init() {
	for m := 0; m < wordTerms; m++ {
		popClass[mbits.OnesCount(uint(m))] |= 1 << m
		wordHash[m] = termHash(bits.Mask(m))
	}
}

// UsesWord reports whether a Spec of n variables stores its outputs in word
// form. It is the only place the representation is chosen.
func UsesWord(n int) bool { return n <= wordVars }

// wordTermSet returns the word-form set with coefficient word w.
func wordTermSet(w uint64) TermSet {
	return TermSet{word: w, hash: wordHashOf(w), isWord: true}
}

// wordHashOf is the XOR of the Zobrist keys of the monomials in w.
func wordHashOf(w uint64) uint64 {
	var h uint64
	for ; w != 0; w &= w - 1 {
		h ^= wordHash[mbits.TrailingZeros64(w)]
	}
	return h
}

// wordToggles returns the terms Substitute(target, factor) toggles in the
// expansion w, after pairwise cancellation.
func wordToggles(w uint64, target int, factor bits.Mask) uint64 {
	t := (w & has[target]) >> (1 << uint(target))
	for f := factor; f != 0; f &= f - 1 {
		j := mbits.TrailingZeros32(f)
		t = t&has[j] ^ (t&^has[j])<<(1<<uint(j))
	}
	return t
}

// substituteWord returns the word-form set ts with the toggle word tw
// applied, and the change in term count.
func (ts *TermSet) substituteWord(tw uint64) (TermSet, int) {
	w := ts.word ^ tw
	return TermSet{word: w, hash: ts.hash ^ wordHashOf(tw), isWord: true},
		mbits.OnesCount64(w) - mbits.OnesCount64(ts.word)
}

// mobiusWord applies the GF(2) Möbius transform to the first 2^n bits of w:
// bit S becomes the XOR of the bits T ⊆ S. Like mobius it is an involution.
func mobiusWord(w uint64, n int) uint64 {
	for j := 0; j < n; j++ {
		w ^= (w &^ has[j]) << (1 << uint(j))
	}
	return w
}

// appendWordTerms appends the monomials of w to dst in ascending order.
func appendWordTerms(dst []bits.Mask, w uint64) []bits.Mask {
	for ; w != 0; w &= w - 1 {
		dst = append(dst, bits.Mask(mbits.TrailingZeros64(w)))
	}
	return dst
}
