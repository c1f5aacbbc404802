// Package pprm implements positive-polarity Reed–Muller (PPRM) expansions
// of reversible functions (Section II-C of the paper) and the substitution
// operation the synthesis algorithm is built on.
//
// The PPRM expansion of a Boolean function is the canonical EXOR
// sum-of-products using only uncomplemented variables:
//
//	f = a0 ⊕ a1·x1 ⊕ … ⊕ an·xn ⊕ a12·x1x2 ⊕ … ⊕ a12…n·x1x2…xn
//
// Each product term is stored as a bit mask (see internal/bits); an output's
// expansion is the set of terms with coefficient 1 (a TermSet: one
// coefficient word for n ≤ 6, a sorted term slice above). A reversible
// function of n variables is represented by n expansions, one per output.
package pprm

import (
	"fmt"
	"strings"

	"repro/internal/bits"
	"repro/internal/perm"
)

// Spec is the PPRM expansion of an n-variable reversible function: Out[i]
// is the expansion of output variable v_out,i in terms of the inputs.
type Spec struct {
	N   int
	Out []TermSet
}

// NewSpec returns a Spec with empty expansions (the constant-0 function on
// every output; not reversible until filled in). Its outputs are in word
// form when n ≤ 6 and in slice form otherwise; every Spec derived from it
// (Clone, SubstituteCopy) keeps that form.
func NewSpec(n int) *Spec {
	s := &Spec{N: n, Out: make([]TermSet, n)}
	if UsesWord(n) {
		for i := range s.Out {
			s.Out[i].isWord = true
		}
	}
	return s
}

// Identity returns the PPRM of the identity function: v_out,i = v_i.
func Identity(n int) *Spec {
	s := NewSpec(n)
	for i := 0; i < n; i++ {
		s.Out[i].Toggle(bits.Bit(i))
	}
	return s
}

// Clone deep-copies the Spec.
func (s *Spec) Clone() *Spec {
	out := &Spec{N: s.N, Out: make([]TermSet, len(s.Out))}
	for i := range s.Out {
		out.Out[i] = s.Out[i].Clone()
	}
	return out
}

// Terms returns the total number of terms across all outputs — the size
// measure driving the algorithm's pruning and priorities.
func (s *Spec) Terms() int {
	n := 0
	for i := range s.Out {
		n += s.Out[i].Len()
	}
	return n
}

// MemBytes approximates the resident size of the Spec in bytes: the struct
// and slice headers plus the term storage of every output — the coefficient
// word of a word-form output, the slice header and backing array of a
// slice-form one. The synthesis search uses it to enforce the paper's
// memory ceiling on queued expansions, so it counts capacity (what the
// allocator holds), not length.
func (s *Spec) MemBytes() int64 {
	b := int64(specHeaderBytes)
	for i := range s.Out {
		if s.Out[i].isWord {
			b += wordOutputBytes
			continue
		}
		b += sliceOutputBytes(cap(s.Out[i].terms))
	}
	return b
}

// specHeaderBytes is MemBytes' charge for a Spec's own fields: N and the
// Out slice header.
const specHeaderBytes = 8 + 24

// wordOutputBytes is MemBytes' charge for a word-form output: its
// coefficient word.
const wordOutputBytes = 8

// sliceOutputBytes is MemBytes' charge for a slice-form output of the given
// capacity: the terms slice header and 4 bytes per bits.Mask.
func sliceOutputBytes(capacity int) int64 { return 24 + 4*int64(capacity) }

// OutputIsIdentity reports whether output i has been reduced to v_i.
func (s *Spec) OutputIsIdentity(i int) bool {
	return s.Out[i].Len() == 1 && s.Out[i].Has(bits.Bit(i))
}

// IsIdentity reports whether every output is its corresponding input — the
// algorithm's solution condition.
func (s *Spec) IsIdentity() bool {
	for i := range s.Out {
		if !s.OutputIsIdentity(i) {
			return false
		}
	}
	return true
}

// Eval evaluates every output on input assignment x, returning the output
// assignment.
func (s *Spec) Eval(x uint32) uint32 {
	var y uint32
	for i := range s.Out {
		parity := uint32(0)
		for _, t := range s.Out[i].Terms() {
			if x&t == t {
				parity ^= 1
			}
		}
		y |= parity << uint(i)
	}
	return y
}

// FromPerm computes the PPRM expansion of a reversible function via the
// GF(2) Reed–Muller (Möbius) transform of each output column. The PPRM
// expansion is canonical, so this exact route produces the same expansion
// the paper obtains through EXORCISM-4 followed by polarity conversion.
func FromPerm(p perm.Perm) (*Spec, error) {
	n := p.Vars()
	if n < 0 || n > bits.MaxVars {
		return nil, fmt.Errorf("pprm: unsupported function size %d", len(p))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := NewSpec(n)
	size := len(p)
	if UsesWord(n) {
		for out := range s.Out {
			var w uint64
			for x := size - 1; x >= 0; x-- {
				w = w<<1 | uint64(p[x]>>uint(out)&1)
			}
			s.Out[out] = wordTermSet(mobiusWord(w, n))
		}
		return s, nil
	}
	col := make([]byte, size)
	for out := 0; out < n; out++ {
		for x := 0; x < size; x++ {
			col[x] = byte(p[x]>>uint(out)) & 1
		}
		mobius(col)
		terms := make([]bits.Mask, 0, size/4)
		for m := 0; m < size; m++ {
			if col[m] == 1 {
				terms = append(terms, bits.Mask(m)) // ascending ⇒ sorted
			}
		}
		s.Out[out] = newSortedTermSet(terms)
	}
	return s, nil
}

// ToPerm evaluates the Spec on every input assignment. The result is a
// valid permutation iff the Spec describes a reversible function; callers
// that require reversibility should Validate the result.
func (s *Spec) ToPerm() perm.Perm {
	size := 1 << uint(s.N)
	col := make([]byte, size)
	p := make(perm.Perm, size)
	for out := 0; out < s.N; out++ {
		if ts := &s.Out[out]; ts.isWord {
			w := mobiusWord(ts.word, s.N)
			for x := range p {
				p[x] |= uint32(w>>uint(x)&1) << uint(out)
			}
			continue
		}
		for x := range col {
			col[x] = 0
		}
		for _, t := range s.Out[out].terms {
			col[t] = 1
		}
		mobius(col) // the transform is an involution: coefficients → values
		for x := 0; x < size; x++ {
			if col[x] == 1 {
				p[x] |= 1 << uint(out)
			}
		}
	}
	return p
}

// mobius applies the in-place GF(2) Möbius (Reed–Muller) butterfly
// transform: a[S] ← XOR of f[T] over T ⊆ S. The transform is its own
// inverse over GF(2).
func mobius(a []byte) {
	n := len(a)
	for step := 1; step < n; step <<= 1 {
		for x := 0; x < n; x++ {
			if x&step != 0 {
				a[x] ^= a[x^step]
			}
		}
	}
}

// Substitute applies v_target = v_target ⊕ factor to every output
// expansion, in place, and returns the change in total term count
// (negative when terms were eliminated). The factor must not contain the
// target variable: a wire cannot be both target and control of the same
// Toffoli gate.
//
// Each term t containing v_target expands as t = v_target·rest into
// v_target·rest ⊕ factor·rest, so the term (t \ v_target) ∪ factor is
// toggled; toggling an existing term cancels it (an even number of
// identical product terms cancels in an EXOR expansion).
//
// Each output the substitution changes is replaced with fresh storage;
// no term slice is written, so a Spec sharing outputs with s (see
// SubstituteCopy) is left intact.
func (s *Spec) Substitute(target int, factor bits.Mask) int {
	return s.substituteInto(s.Out, target, factor)
}

// SubstituteCopy returns a new Spec equal to s with v_target = v_target ⊕
// factor applied, plus the term-count change. Outputs the substitution
// does not touch share their term storage (not copied) with s, which is
// what makes the search's child-node creation cheap. Sharing is safe under
// Substitute, which replaces every output it changes with fresh storage;
// Toggle writes a term slice in place and must not be applied to a shared
// output.
func (s *Spec) SubstituteCopy(target int, factor bits.Mask) (*Spec, int) {
	out := &Spec{N: s.N, Out: make([]TermSet, len(s.Out))}
	return out, s.substituteInto(out.Out, target, factor)
}

// substituteInto writes s's outputs with v_target = v_target ⊕ factor
// applied into dst — s.Out itself, or a fresh array of the same length —
// and returns the change in total term count. A changed slice-form output
// gets fresh storage, so no term slice is ever written.
func (s *Spec) substituteInto(dst []TermSet, target int, factor bits.Mask) int {
	if bits.Has(factor, target) {
		panic(fmt.Sprintf("pprm: factor %s contains target %s",
			bits.TermString(factor), bits.VarName(target)))
	}
	tb := bits.Bit(target)
	delta := 0
	var buf []bits.Mask
	for j := range s.Out {
		ts := &s.Out[j]
		var d int
		if ts.isWord {
			dst[j], d = ts.substituteWord(wordToggles(ts.word, target, factor))
		} else {
			dst[j], d = ts.substituteSlice(tb, factor, &buf)
		}
		delta += d
	}
	return delta
}

// Equal reports whether the two Specs are the same expansion.
func (s *Spec) Equal(o *Spec) bool {
	if s.N != o.N {
		return false
	}
	for i := range s.Out {
		if !s.Out[i].Equal(&o.Out[i]) {
			return false
		}
	}
	return true
}

// String renders the expansion in the paper's style, one output per line:
//
//	a' = 1 ^ a
//	b' = b ^ c ^ ac
func (s *Spec) String() string {
	var b strings.Builder
	for i := 0; i < s.N; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(bits.VarName(i))
		b.WriteString("' = ")
		terms := s.Out[i].Sorted()
		if len(terms) == 0 {
			b.WriteString("0")
			continue
		}
		for j, t := range terms {
			if j > 0 {
				b.WriteString(" ^ ")
			}
			b.WriteString(bits.TermString(t))
		}
	}
	return b.String()
}

// Parse reads a Spec in the String format. Lines look like
// "b' = b ^ c ^ ac" (also accepting "b_out", "bo" or "b" before the "=",
// and "⊕", "+", or "^" as the EXOR operator). n is the number of
// variables; every output must be defined exactly once.
func Parse(n int, text string) (*Spec, error) {
	s := NewSpec(n)
	defined := make([]bool, n)
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("pprm: line %d: missing '='", lineNo+1)
		}
		lhs := strings.TrimSpace(line[:eq])
		lhs = strings.TrimSuffix(lhs, "'")
		lhs = strings.TrimSuffix(lhs, "_out")
		lhs = strings.TrimSuffix(lhs, "o")
		if lhs == "" { // output named exactly "o": the trims above ate it
			lhs = "o"
		}
		out := bits.VarIndex(lhs)
		if out < 0 || out >= n {
			return nil, fmt.Errorf("pprm: line %d: unknown output %q", lineNo+1, strings.TrimSpace(line[:eq]))
		}
		if defined[out] {
			return nil, fmt.Errorf("pprm: line %d: output %s defined twice", lineNo+1, bits.VarName(out))
		}
		defined[out] = true
		rhs := strings.TrimSpace(line[eq+1:])
		if rhs == "0" {
			continue
		}
		rhs = strings.ReplaceAll(rhs, "⊕", "^")
		rhs = strings.ReplaceAll(rhs, "+", "^")
		for _, tok := range strings.Split(rhs, "^") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				return nil, fmt.Errorf("pprm: line %d: empty term", lineNo+1)
			}
			m, ok := bits.ParseTerm(tok)
			if !ok {
				return nil, fmt.Errorf("pprm: line %d: bad term %q", lineNo+1, tok)
			}
			if m >= 1<<uint(n) {
				return nil, fmt.Errorf("pprm: line %d: term %q uses variables beyond %d", lineNo+1, tok, n)
			}
			s.Out[out].Toggle(m)
		}
	}
	for i, ok := range defined {
		if !ok {
			return nil, fmt.Errorf("pprm: output %s not defined", bits.VarName(i))
		}
	}
	return s, nil
}
