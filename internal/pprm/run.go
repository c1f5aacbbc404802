package pprm

import (
	"fmt"
	"slices"

	"repro/internal/bits"
)

// Run form: a pointer-free copy of a slice-form Spec (N ≥ 7), the slice-form
// counterpart of AppendWords. A run is one []uint32 holding, for each output
// in turn, a header and then the output's terms in ascending order. The
// header records the term count and the capacity Cap reports, so
// RunMemBytes charges what Spec.MemBytes charges for the Spec the run
// stands for, although a run stores only the terms. It is one word, the
// count in the low half and the spare capacity in the high half, unless
// either does not fit in 16 bits: then the low half is runEscape and two
// more words hold the count and the capacity. The hashes are not stored:
// LoadRun recomputes them, which costs one key per term and keeps a run at
// about one word per output beyond its terms. Deriving a run from a run
// (AppendSubstituteRun) yields exactly the run of the SubstituteCopy
// result, capacities included, so a search can keep its expansions as runs
// and still account for memory as if it held Specs.

// runEscape in a header's low half marks the three-word header.
const runEscape = 0xffff

// AppendRun appends the slice-form Spec s to dst as a run and returns the
// extended slice. It panics on a word-form Spec.
func (s *Spec) AppendRun(dst []uint32) []uint32 {
	k := 0
	for i := range s.Out {
		k += 3 + len(s.Out[i].terms)
	}
	dst = slices.Grow(dst, k)
	for i := range s.Out {
		ts := &s.Out[i]
		if ts.isWord {
			panic("pprm: AppendRun on a word-form spec")
		}
		dst = appendRunHeader(dst, len(ts.terms), cap(ts.terms))
		dst = append(dst, ts.terms...)
	}
	return dst
}

// LoadRun overwrites the slice-form Spec s with a view of the run r,
// without allocating: each output's terms alias r, and its hash is
// recomputed from them. The view is read-only and valid while r is
// unchanged; Toggle must not be applied to it, while Substitute and
// SubstituteCopy give every output they change fresh storage and so never
// write r. A view's Cap is its term count; RunCap reads the recorded
// capacity.
func (s *Spec) LoadRun(r []uint32) {
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
	off := 0
	for range n {
		h, k, _ := runHeader(r[off:])
		off += h + k
	}
	return off
}

// RunCap returns the capacity recorded for output i of the run r.
func RunCap(r []uint32, i int) int {
	for ; i > 0; i-- {
		h, k, _ := runHeader(r)
		r = r[h+k:]
	}
	_, _, c := runHeader(r)
	return c
}

// RunMemBytes returns Spec.MemBytes of the Spec the run r was written from.
func RunMemBytes(r []uint32) int64 {
	b := int64(specHeaderBytes)
	for len(r) > 0 {
		h, k, c := runHeader(r)
		b += sliceOutputBytes(c)
		r = r[h+k:]
	}
	return b
}

// AppendSubstituteRun appends to dst the run of the expansion in run base
// with v_target = v_target ⊕ factor applied, and returns it with the change
// in term count: the run AppendRun writes for SubstituteCopy of the Spec
// base was written from, capacities included. An output the substitution
// does not touch is copied with its capacity; a changed one records the
// capacity SubstituteCopy allocates for it. *buf is scratch for the toggle
// list, kept (grown) for reuse, so with dst and *buf grown the call
// allocates nothing; it grows dst by base's length at once.
func AppendSubstituteRun(dst, base []uint32, target int, factor bits.Mask, buf *[]bits.Mask) ([]uint32, int) {
	if bits.Has(factor, target) {
		panic(fmt.Sprintf("pprm: factor %s contains target %s",
			bits.TermString(factor), bits.VarName(target)))
	}
	dst = slices.Grow(dst, len(base))
	tb := bits.Bit(target)
	delta := 0
	for len(base) > 0 {
		h, k, _ := runHeader(base)
		ts := TermSet{terms: base[h : h+k : h+k]}
		toggles, _, hit := ts.sliceToggles(tb, factor, *buf)
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
