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
//     are R = (w & has[t]) >> 2^t (wordRests); multiplying them by f is one
//     masked shift-XOR per factor variable (wordTimes: a term that already
//     holds the variable stays, one that lacks it moves up by 2^j, and
//     coinciding terms cancel in pairs), giving the toggles T; the result
//     is w ^ T;
//   - the term-count change is a popcount difference and the hash change is
//     the XOR of the Zobrist keys of T's bits, one table lookup per
//     non-zero byte of T (wordHashOf);
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
	// wordHash8[k][b] is the XOR of the Zobrist keys of the monomials
	// 8k+i for the bits i set in b: the hash of byte k of a coefficient
	// word. 16 KiB.
	wordHash8 [wordTerms / 8][256]uint64
)

func init() {
	for m := 0; m < wordTerms; m++ {
		popClass[mbits.OnesCount(uint(m))] |= 1 << m
	}
	for k := range wordHash8 {
		for b := 1; b < 256; b++ {
			low := mbits.TrailingZeros(uint(b))
			wordHash8[k][b] = wordHash8[k][b&(b-1)] ^ termHash(bits.Mask(8*k+low))
		}
	}
}

// UsesWord reports whether a Spec of n variables stores its outputs in word
// form. It is the only place the representation is chosen.
func UsesWord(n int) bool { return n <= wordVars }

// wordTermSet returns the word-form set with coefficient word w.
func wordTermSet(w uint64) TermSet {
	return TermSet{word: w, hash: wordHashOf(w), isWord: true}
}

// wordHashOf is the XOR of the Zobrist keys of the monomials in w, one
// lookup per byte up to w's highest non-zero one: a 3-variable expansion
// takes one, a 4-variable one two.
func wordHashOf(w uint64) uint64 {
	var h uint64
	for k := range wordHash8 {
		if w == 0 {
			break
		}
		h ^= wordHash8[k][uint8(w)]
		w >>= 8
	}
	return h
}

// wordKey is the Zobrist key of monomial m < 64.
func wordKey(m bits.Mask) uint64 { return wordHash8[m>>3][1<<(m&7)] }

// wordRests returns the terms of the expansion w that hold the target
// variable, with it removed.
func wordRests(w uint64, target int) uint64 {
	return (w & has[target]) >> (1 << uint(target))
}

// wordTimes returns the product of the rests r (see wordRests) with the
// monomial factor, coinciding terms cancelled in pairs: the terms a
// substitution with that factor toggles.
func wordTimes(r uint64, factor bits.Mask) uint64 {
	for f := factor; f != 0; f &= f - 1 {
		j := mbits.TrailingZeros32(f)
		r = r&has[j] ^ (r&^has[j])<<(1<<uint(j))
	}
	return r
}

// wordToggles returns the terms Substitute(target, factor) toggles in the
// expansion w, after pairwise cancellation.
func wordToggles(w uint64, target int, factor bits.Mask) uint64 {
	return wordTimes(wordRests(w, target), factor)
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
