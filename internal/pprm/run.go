package pprm

import (
	"fmt"
	mbits "math/bits"
	"slices"

	"repro/internal/bits"
)

// Run form: a pointer-free copy of a Spec as one []uint32, the form in
// which a search keeps its expansions. Its layout follows the Spec's form,
// which the variable count fixes (UsesWord), so every function here that
// reads a run without a Spec takes that count:
//
//   - word form (N ≤ 6): four words per output, its coefficient word and
//     then its hash, each low half first. The hash is stored, not
//     recomputed, so LoadRun costs a copy of 4N words.
//   - slice form: for each output in turn, a header and then the output's
//     terms in ascending order. The header records the term count and the
//     capacity Cap reports, so RunMemBytes charges what Spec.MemBytes
//     charges for the Spec the run stands for, although a run stores only
//     the terms. It is one word, the count in the low half and the spare
//     capacity in the high half, unless either does not fit in 16 bits:
//     then the low half is runEscape and two more words hold the count and
//     the capacity. The hashes are not stored: LoadRun recomputes them,
//     which costs one key per term and keeps a run at about one word per
//     output beyond its terms.
//
// Deriving a run from a run (AppendSubstituteRun) yields exactly the run
// of the SubstituteCopy result, capacities included, so a search can keep
// its expansions as runs and still account for memory as if it held Specs.

// wordRunLen is the length of one output in a word-form run.
const wordRunLen = 4

// runEscape in a header's low half marks the three-word header.
const runEscape = 0xffff

// AppendRun appends s to dst as a run and returns the extended slice. It
// panics unless s has N outputs, in the form NewSpec chose for them.
func (s *Spec) AppendRun(dst []uint32) []uint32 {
	if len(s.Out) != s.N {
		panic(fmt.Sprintf("pprm: AppendRun on a spec of %d outputs for %d variables", len(s.Out), s.N))
	}
	word := UsesWord(s.N)
	k := 0
	for i := range s.Out {
		k += wordRunLen + len(s.Out[i].terms) // a slice-form header is at most 3 words
	}
	dst = slices.Grow(dst, k)
	for i := range s.Out {
		ts := &s.Out[i]
		switch {
		case ts.isWord != word:
			panic("pprm: AppendRun on an output not in its spec's form")
		case word:
			dst = appendWordRun(dst, ts.word, ts.hash)
		default:
			dst = appendRunHeader(dst, len(ts.terms), cap(ts.terms))
			dst = append(dst, ts.terms...)
		}
	}
	return dst
}

// LoadRun overwrites s with a view of the run r, without allocating. In
// slice form each output's terms alias r and its hash is recomputed from
// them; the view is read-only and valid while r is unchanged, and Toggle
// must not be applied to it, while Substitute and SubstituteCopy give
// every output they change fresh storage and so never write r. A
// slice-form view's Cap is its term count; RunCap reads the recorded
// capacity.
func (s *Spec) LoadRun(r []uint32) {
	if UsesWord(len(s.Out)) {
		r = r[:wordRunLen*len(s.Out)]
		for i := range s.Out {
			w := r[wordRunLen*i : wordRunLen*(i+1)]
			s.Out[i] = TermSet{word: joinWord(w[0], w[1]), hash: joinWord(w[2], w[3]), isWord: true}
		}
		return
	}
	for i := range s.Out {
		h, k, _ := runHeader(r)
		terms := r[h : h+k : h+k]
		var hash uint64
		for _, t := range terms {
			hash ^= termHash(t)
		}
		s.Out[i] = TermSet{terms: terms, hash: hash}
		r = r[h+k:]
	}
}

// RunLen returns the length of the run of an n-output Spec at the start of
// r, which may run on past it.
func RunLen(r []uint32, n int) int {
	if UsesWord(n) {
		return wordRunLen * n
	}
	off := 0
	for range n {
		h, k, _ := runHeader(r[off:])
		off += h + k
	}
	return off
}

// RunCap returns the capacity recorded for output i of the run r of an
// n-output Spec: what Cap reported for it.
func RunCap(r []uint32, n, i int) int {
	if UsesWord(n) {
		return mbits.OnesCount64(joinWord(r[wordRunLen*i], r[wordRunLen*i+1]))
	}
	for ; i > 0; i-- {
		h, k, _ := runHeader(r)
		r = r[h+k:]
	}
	_, _, c := runHeader(r)
	return c
}

// RunMemBytes returns Spec.MemBytes of the n-output Spec the run r was
// written from.
func RunMemBytes(r []uint32, n int) int64 {
	b := int64(specHeaderBytes)
	if UsesWord(n) {
		return b + wordOutputBytes*int64(n)
	}
	for len(r) > 0 {
		h, k, c := runHeader(r)
		b += sliceOutputBytes(c)
		r = r[h+k:]
	}
	return b
}

// AppendSubstituteRun appends to dst the run of the expansion in run base,
// of an n-output Spec, with v_target = v_target ⊕ factor applied, and
// returns it with the change in term count: the run AppendRun writes for
// SubstituteCopy of the Spec base was written from, capacities included.
// A slice-form output the substitution does not touch is copied with its
// capacity; a changed one records the capacity SubstituteCopy allocates
// for it. *buf is scratch for the slice-form toggle list, kept (grown) for
// reuse, so with dst and *buf grown the call allocates nothing; it grows
// dst by base's length at once.
func AppendSubstituteRun(dst, base []uint32, n, target int, factor bits.Mask, buf *[]bits.Mask) ([]uint32, int) {
	if bits.Has(factor, target) {
		panic(fmt.Sprintf("pprm: factor %s contains target %s",
			bits.TermString(factor), bits.VarName(target)))
	}
	dst = slices.Grow(dst, len(base))
	delta := 0
	if UsesWord(n) {
		for base = base[:wordRunLen*n]; len(base) > 0; base = base[wordRunLen:] {
			w, h := joinWord(base[0], base[1]), joinWord(base[2], base[3])
			if tw := wordToggles(w, target, factor); tw != 0 {
				delta += mbits.OnesCount64(w^tw) - mbits.OnesCount64(w)
				w, h = w^tw, h^wordHashOf(tw)
			}
			dst = appendWordRun(dst, w, h)
		}
		return dst, delta
	}
	tb := bits.Bit(target)
	for len(base) > 0 {
		h, k, _ := runHeader(base)
		ts := TermSet{terms: base[h : h+k : h+k]}
		toggles, hit := ts.togglesInto(tb, factor, *buf)
		*buf = toggles
		if !hit {
			dst = append(dst, base[:h+k]...)
			base = base[h+k:]
			continue
		}
		// The merge writes the terms after a three-word header; a count and
		// capacity that fit one word move them back by two.
		at := len(dst)
		dst = appendMerge(append(dst, 0, 0, 0), ts.terms, toggles)
		m := len(dst) - at - 3
		if hdr := appendRunHeader(dst[:at], m, k+len(toggles)); len(hdr) == at+1 {
			copy(dst[at+1:], dst[at+3:])
			dst = dst[:len(dst)-2]
		}
		delta += m - k
		base = base[h+k:]
	}
	return dst, delta
}

// appendWordRun appends one word-form output: its coefficient word w and
// its hash h.
func appendWordRun(dst []uint32, w, h uint64) []uint32 {
	return append(dst, uint32(w), uint32(w>>32), uint32(h), uint32(h>>32))
}

// joinWord returns the 64-bit word with halves lo and hi.
func joinWord(lo, hi uint32) uint64 { return uint64(lo) | uint64(hi)<<32 }

// appendRunHeader appends one output's run header.
func appendRunHeader(dst []uint32, terms, capacity int) []uint32 {
	if spare := capacity - terms; terms < runEscape && spare <= 0xffff {
		return append(dst, uint32(terms)|uint32(spare)<<16)
	}
	return append(dst, runEscape, uint32(terms), uint32(capacity))
}

// runHeader reads the run header at the start of r: its length in words,
// the output's term count and its capacity.
func runHeader(r []uint32) (words, terms, capacity int) {
	if w := r[0]; w&0xffff != runEscape {
		terms = int(w & 0xffff)
		return 1, terms, terms + int(w>>16)
	}
	return 3, int(r[1]), int(r[2])
}
