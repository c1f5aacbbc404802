package pprm

import (
	"fmt"
	mbits "math/bits"
	"slices"
	"sort"

	"repro/internal/bits"
)

// TermSet is the set of product terms (with coefficient 1) of one output's
// PPRM expansion. It has two forms, chosen once per Spec from its variable
// count (see UsesWord) and never converted afterwards:
//
//   - word form, for every Spec with N ≤ 6: the dense Reed–Muller
//     coefficient vector packed into one uint64, bit m set iff term m is
//     present (2^6 = 64 monomials). Substitution, probing, membership and
//     the presentation-order walk are a handful of word operations (see
//     word.go) and never allocate.
//   - slice form, for N ≥ 7 and for free-standing sets (the zero value,
//     NewTermSet): a strictly increasing slice of term masks. The paper's C
//     implementation uses sorted doubly linked lists for the same reason:
//     substitutions stream through the terms in order, and copies (one per
//     queued search node) are a single contiguous move.
//
// Alongside the terms the set maintains hash, the XOR of the terms' Zobrist
// keys (see hash.go), updated in O(1) per membership flip, which the
// synthesis search's transposition table keys on. It is the same function of
// the term set in both forms.
//
// A TermSet keeps no other derived state: the presentation order (Sorted,
// AppendSorted) is recomputed on every call, in O(k) for k terms, so reads
// never write and read-only sharing across goroutines is safe in both
// forms. Only Toggle writes a term slice in place, so it needs exclusive
// ownership of the storage; Spec.Substitute replaces each output it
// changes with fresh storage, so term slices shared between Specs (see
// SubstituteCopy) are never rewritten by it.
//
// The struct is 48 bytes (pinned by TestTermSetSize): every Spec copy moves
// one TermSet per output, and the slice-form search on wide functions slows
// measurably when the struct grows.
type TermSet struct {
	terms  []bits.Mask // slice form: strictly increasing
	hash   uint64      // XOR of termHash over the terms
	word   uint64      // word form: bit m set iff term m has coefficient 1
	isWord bool
}

// NewTermSet builds a slice-form set from arbitrary masks; duplicate pairs
// cancel (EXOR semantics).
func NewTermSet(masks ...bits.Mask) TermSet {
	var ts TermSet
	for _, m := range masks {
		ts.Toggle(m)
	}
	return ts
}

// newSortedTermSet wraps a strictly increasing mask slice, computing its
// hash. The slice is owned by the new set.
func newSortedTermSet(terms []bits.Mask) TermSet {
	var h uint64
	for _, t := range terms {
		h ^= termHash(t)
	}
	return TermSet{terms: terms, hash: h}
}

// Len returns the number of terms.
func (ts *TermSet) Len() int {
	if ts.isWord {
		return mbits.OnesCount64(ts.word)
	}
	return len(ts.terms)
}

// Has reports whether term t has coefficient 1.
func (ts *TermSet) Has(t bits.Mask) bool {
	if ts.isWord {
		return ts.word>>t&1 != 0 // a shift by 64 or more gives 0
	}
	i := sort.Search(len(ts.terms), func(i int) bool { return ts.terms[i] >= t })
	return i < len(ts.terms) && ts.terms[i] == t
}

// Toggle flips membership of term t and returns +1 if it was inserted, −1
// if removed. A word-form set panics on a term beyond its six variables.
func (ts *TermSet) Toggle(t bits.Mask) int {
	if ts.isWord {
		ts.hash ^= wordHash[t]
		ts.word ^= 1 << t
		if ts.word>>t&1 != 0 {
			return 1
		}
		return -1
	}
	ts.hash ^= termHash(t)
	i := sort.Search(len(ts.terms), func(i int) bool { return ts.terms[i] >= t })
	if i < len(ts.terms) && ts.terms[i] == t {
		ts.terms = append(ts.terms[:i], ts.terms[i+1:]...)
		return -1
	}
	ts.terms = append(ts.terms, 0)
	copy(ts.terms[i+1:], ts.terms[i:])
	ts.terms[i] = t
	return 1
}

// Clone returns a copy of the set that shares no storage with it.
func (ts *TermSet) Clone() TermSet {
	if ts.isWord {
		return *ts
	}
	return TermSet{terms: append([]bits.Mask(nil), ts.terms...), hash: ts.hash}
}

// Terms returns the terms in ascending mask order. A slice-form set returns
// its own storage, which must not be modified; a word-form set returns a
// freshly allocated slice.
func (ts *TermSet) Terms() []bits.Mask {
	if ts.isWord {
		return appendWordTerms(make([]bits.Mask, 0, ts.Len()), ts.word)
	}
	return ts.terms
}

// Cap returns the capacity of the backing term storage. The synthesis
// memory accounting (Spec.MemBytes) is capacity-based for slice-form sets,
// so a checkpoint that wants a byte-identical restore must record and
// reproduce it. A word-form set has no separate storage and reports its
// length.
func (ts *TermSet) Cap() int {
	if ts.isWord {
		return ts.Len()
	}
	return cap(ts.terms)
}

// RestoreOutput rebuilds output i from a strictly increasing term list and
// the capacity Cap reported for it, re-deriving the incremental hash from
// scratch. It is the snapshot subsystem's inverse of Terms/Cap: the output
// keeps the form NewSpec chose for s, and a slice-form output gets a fresh
// slice of exactly the given capacity, so MemBytes reports the same value
// the serialized set did. The error is non-nil when the list is not
// strictly increasing, uses variables beyond s.N, or the capacity is too
// small.
func (s *Spec) RestoreOutput(i int, terms []bits.Mask, capacity int) error {
	if capacity < len(terms) {
		return fmt.Errorf("pprm: restore capacity %d < %d terms", capacity, len(terms))
	}
	for k, t := range terms {
		if k > 0 && t <= terms[k-1] {
			return fmt.Errorf("pprm: restore terms not strictly increasing at index %d", k)
		}
		if uint64(t) >= 1<<uint(s.N) {
			return fmt.Errorf("pprm: restore term %s uses variables beyond %d", bits.TermString(t), s.N)
		}
	}
	if s.Out[i].isWord {
		var w uint64
		for _, t := range terms {
			w |= 1 << t
		}
		s.Out[i] = wordTermSet(w)
		return nil
	}
	buf := make([]bits.Mask, len(terms), capacity)
	copy(buf, terms)
	s.Out[i] = newSortedTermSet(buf)
	return nil
}

// Sorted returns the terms ordered by ascending literal count, then mask —
// the deterministic presentation order used for printing and candidate
// enumeration — in a freshly allocated slice. Hot paths use AppendSorted
// with a reused buffer instead.
func (ts *TermSet) Sorted() []bits.Mask {
	return ts.AppendSorted(make([]bits.Mask, 0, ts.Len()))
}

// AppendSorted appends the terms in presentation order (see Sorted) to dst
// and returns the extended slice. It allocates nothing beyond growing dst.
// On a word-form set it walks the literal-count classes of the word; on a
// slice-form set it is one stable counting sort by literal count over the
// ascending terms, so each class comes out in mask order.
func (ts *TermSet) AppendSorted(dst []bits.Mask) []bits.Mask {
	if ts.isWord {
		for k := range popClass {
			dst = appendWordTerms(dst, ts.word&popClass[k])
		}
		return dst
	}
	// start[c+1] counts the terms with c literals; the prefix sums then
	// turn start[c] into the first output index of class c.
	var start [bits.MaxVars + 2]int
	for _, t := range ts.terms {
		start[bits.Count(t)+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	base := len(dst)
	dst = slices.Grow(dst, len(ts.terms))[:base+len(ts.terms)]
	out := dst[base:]
	for _, t := range ts.terms {
		c := bits.Count(t)
		out[start[c]] = t
		start[c]++
	}
	return dst
}

// AppendFactors appends to dst the terms that do not contain variable v, in
// presentation order (see Sorted), and returns the extended slice: the
// factors a substitution into v may use. On a word-form set it walks the
// literal-count classes of the word with v's monomials masked off; on a
// slice-form set it is AppendSorted followed by an in-place filter.
func (ts *TermSet) AppendFactors(dst []bits.Mask, v int) []bits.Mask {
	if ts.isWord {
		w := ts.word &^ has[v]
		for k := range popClass {
			dst = appendWordTerms(dst, w&popClass[k])
		}
		return dst
	}
	base := len(dst)
	dst = ts.AppendSorted(dst)
	vb := bits.Bit(v)
	k := base
	for _, t := range dst[base:] {
		if t&vb == 0 {
			dst[k] = t
			k++
		}
	}
	return dst[:k]
}

// Equal reports whether the two sets hold the same terms, whatever their
// forms. The incremental hashes give a constant-time negative fast path;
// the element compare guards against 64-bit collisions on the (hash-equal)
// positive path. Either way the comparison performs no allocation.
func (ts *TermSet) Equal(o *TermSet) bool {
	if ts.hash != o.hash || ts.Len() != o.Len() {
		return false
	}
	switch {
	case ts.isWord && o.isWord:
		return ts.word == o.word
	case ts.isWord:
		return o.Equal(ts)
	case o.isWord:
		for _, t := range ts.terms {
			if !o.Has(t) {
				return false
			}
		}
		return true
	}
	for i, t := range ts.terms {
		if o.terms[i] != t {
			return false
		}
	}
	return true
}

// sliceToggles collects into buf the terms that the substitution v_target =
// v_target ⊕ factor toggles in the slice-form set ts (tb is v_target's
// bit), sorted and with duplicate pairs cancelled, and returns them with
// the XOR of their Zobrist keys. hit reports whether any term held the
// target; the toggles can cancel to nothing even when it did.
func (ts *TermSet) sliceToggles(tb, factor bits.Mask, buf []bits.Mask) (toggles []bits.Mask, tx uint64, hit bool) {
	toggles = buf[:0]
	for _, t := range ts.terms {
		if t&tb != 0 {
			nt := (t &^ tb) | factor
			toggles = append(toggles, nt)
			// Toggle keys cancel in XOR pairs exactly like the terms,
			// so the XOR over the raw toggles is the hash change.
			tx ^= termHash(nt)
		}
	}
	if len(toggles) == 0 {
		return toggles, 0, false
	}
	slices.Sort(toggles)
	// An even number of identical toggles cancels.
	out := toggles[:0]
	for i := 0; i < len(toggles); {
		j := i
		for j < len(toggles) && toggles[j] == toggles[i] {
			j++
		}
		if (j-i)%2 == 1 {
			out = append(out, toggles[i])
		}
		i = j
	}
	return out, tx, true
}

// substituteSlice returns the slice-form set ts with v_target = v_target ⊕
// factor applied, and the change in its term count. The result owns fresh
// storage, or is ts itself, sharing its storage, when no term held the
// target. *buf is scratch for the toggle list, kept (grown) for reuse.
func (ts *TermSet) substituteSlice(tb, factor bits.Mask, buf *[]bits.Mask) (TermSet, int) {
	toggles, tx, hit := ts.sliceToggles(tb, factor, *buf)
	*buf = toggles
	if !hit {
		return *ts, 0
	}
	a := ts.terms
	merged := appendMerge(make([]bits.Mask, 0, len(a)+len(toggles)), a, toggles)
	return TermSet{terms: merged, hash: ts.hash ^ tx}, len(merged) - len(a)
}

// appendMerge appends to dst the strictly increasing terms a with the
// sorted, cancelled toggles applied — a toggle already in a cancels it, an
// absent one is inserted — and returns the extended slice.
func appendMerge(dst, a, toggles []bits.Mask) []bits.Mask {
	i, k := 0, 0
	for i < len(a) && k < len(toggles) {
		switch {
		case a[i] < toggles[k]:
			dst = append(dst, a[i])
			i++
		case a[i] > toggles[k]:
			dst = append(dst, toggles[k])
			k++
		default:
			i++
			k++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, toggles[k:]...)
}

// probeSlice returns the term-count change and the hash of the set
// substituteSlice would return, without building it. *buf is as there.
func (ts *TermSet) probeSlice(tb, factor bits.Mask, buf *[]bits.Mask) (delta int, hash uint64) {
	toggles, tx, _ := ts.sliceToggles(tb, factor, *buf)
	*buf = toggles
	// Merge-count against the sorted set: toggles already present cancel
	// (−1), absent ones insert (+1).
	a := ts.terms
	i, k := 0, 0
	for i < len(a) && k < len(toggles) {
		switch {
		case a[i] < toggles[k]:
			i++
		case a[i] > toggles[k]:
			delta++
			k++
		default:
			delta--
			i++
			k++
		}
	}
	return delta + len(toggles) - k, ts.hash ^ tx
}
