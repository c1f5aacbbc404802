package pprm

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/bits"
	"repro/internal/perm"
	"repro/internal/rng"
)

// newTermSet builds a slice-form set from arbitrary masks; duplicate pairs
// cancel (EXOR semantics).
func newTermSet(masks ...bits.Mask) TermSet {
	var ts TermSet
	for _, m := range masks {
		ts.Toggle(m)
	}
	return ts
}

func fig1() perm.Perm {
	return perm.MustFromInts([]int{1, 0, 7, 2, 3, 4, 5, 6})
}

func TestFromPermFig1(t *testing.T) {
	s, err := FromPerm(fig1())
	if err != nil {
		t.Fatal(err)
	}
	// Eq. (3) of the paper.
	want := map[int][]string{
		0: {"1", "a"},
		1: {"b", "c", "ac"},
		2: {"b", "ab", "ac"},
	}
	for out, terms := range want {
		if s.Out[out].Len() != len(terms) {
			t.Fatalf("output %d has %d terms, want %d", out, s.Out[out].Len(), len(terms))
		}
		for _, ts := range terms {
			m, _ := bits.ParseTerm(ts)
			if !s.Out[out].Has(m) {
				t.Errorf("output %d missing term %s", out, ts)
			}
		}
	}
}

func TestRoundTripPermPPRMPerm(t *testing.T) {
	src := rng.New(4)
	for n := 1; n <= 6; n++ {
		for trial := 0; trial < 20; trial++ {
			p := perm.Random(n, src)
			s, err := FromPerm(p)
			if err != nil {
				t.Fatal(err)
			}
			if !s.ToPerm().Equal(p) {
				t.Fatalf("n=%d: PPRM round trip changed the function", n)
			}
		}
	}
}

func TestMobiusInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		// Pad to a power of two of sensible size.
		col := make([]byte, 64)
		for i := range col {
			if i < len(raw) {
				col[i] = raw[i] & 1
			}
		}
		orig := append([]byte(nil), col...)
		mobius(col)
		mobius(col)
		for i := range col {
			if col[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIdentitySpec(t *testing.T) {
	s := Identity(5)
	if !s.IsIdentity() {
		t.Error("Identity spec should be the identity")
	}
	if s.Terms() != 5 {
		t.Errorf("identity has %d terms, want 5", s.Terms())
	}
	if !s.ToPerm().IsIdentity() {
		t.Error("identity spec evaluates to a different function")
	}
}

func TestSubstituteSemantics(t *testing.T) {
	// Substituting v = v ⊕ f into the PPRM of function g yields the PPRM
	// of g ∘ T where T is the Toffoli gate (target v, controls f) —
	// verified pointwise on random cases.
	src := rng.New(10)
	for trial := 0; trial < 60; trial++ {
		n := 2 + src.Intn(4)
		p := perm.Random(n, src)
		s, err := FromPerm(p)
		if err != nil {
			t.Fatal(err)
		}
		target := src.Intn(n)
		factor := bits.Mask(src.Intn(1<<uint(n))) &^ bits.Bit(target)
		s.Substitute(target, factor)

		// g ∘ T: apply the gate first, then the original function.
		got := s.ToPerm()
		for x := uint32(0); x < uint32(len(p)); x++ {
			tx := x
			if x&factor == factor {
				tx ^= bits.Bit(target)
			}
			if got[tx] != p[x] {
				t.Fatalf("trial %d: substitution semantics wrong (n=%d target=%d factor=%s)",
					trial, n, target, bits.TermString(factor))
			}
		}
	}
}

func TestSubstituteInvolution(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 40; trial++ {
		n := 2 + src.Intn(4)
		p := perm.Random(n, src)
		s, _ := FromPerm(p)
		orig := s.Clone()
		target := src.Intn(n)
		factor := bits.Mask(src.Intn(1<<uint(n))) &^ bits.Bit(target)
		d1 := s.Substitute(target, factor)
		d2 := s.Substitute(target, factor)
		if d1+d2 != 0 {
			t.Fatalf("deltas %d + %d should cancel", d1, d2)
		}
		if !s.Equal(orig) {
			t.Fatal("double substitution is not the identity")
		}
	}
}

func TestSubstituteProbeMatchesSubstitute(t *testing.T) {
	src := rng.New(12)
	var buf []bits.Mask
	for trial := 0; trial < 60; trial++ {
		n := 2 + src.Intn(4)
		p := perm.Random(n, src)
		s, _ := FromPerm(p)
		target := src.Intn(n)
		factor := bits.Mask(src.Intn(1<<uint(n))) &^ bits.Bit(target)
		var want int
		var hash uint64
		want, hash, buf = s.SubstituteProbe(target, factor, buf)
		got := s.Substitute(target, factor)
		if got != want {
			t.Fatalf("SubstituteProbe delta = %d, Substitute = %d", want, got)
		}
		if hash != s.Hash() {
			t.Fatalf("SubstituteProbe hash %#x, substituted spec hashes %#x", hash, s.Hash())
		}
	}
}

func TestSubstituteCopyMatchesInPlace(t *testing.T) {
	src := rng.New(13)
	for trial := 0; trial < 60; trial++ {
		n := 2 + src.Intn(4)
		p := perm.Random(n, src)
		s, _ := FromPerm(p)
		target := src.Intn(n)
		factor := bits.Mask(src.Intn(1<<uint(n))) &^ bits.Bit(target)
		cp, delta := s.SubstituteCopy(target, factor)
		wantDelta := s.Substitute(target, factor) // mutates s
		if delta != wantDelta {
			t.Fatalf("delta %d, want %d", delta, wantDelta)
		}
		if !cp.Equal(s) {
			t.Fatal("SubstituteCopy result differs from in-place result")
		}
	}
}

// TestSubstituteLeavesSharedCopyIntact pins that in-place Substitute never
// writes term storage a SubstituteCopy result shares: with spare capacity
// in b' = b ^ ab ^ ac, writing the merged terms back in place would turn
// the copy's b' into c ^ ab ^ ac.
func TestSubstituteLeavesSharedCopyIntact(t *testing.T) {
	s := Identity(8)
	if err := s.RestoreOutput(1, []bits.Mask{0b010, 0b011, 0b101}, 4); err != nil {
		t.Fatal(err)
	}
	cp, _ := s.SubstituteCopy(7, bits.Bit(6)) // shares outputs 0…6 with s
	want := cp.Clone()
	s.Substitute(0, 0) // a = a ^ 1 changes outputs 0 and 1
	if !cp.Equal(want) {
		t.Fatalf("Substitute rewrote a shared output of the copy:\n%v\nwant\n%v", cp, want)
	}
	if got := s.Out[1].Terms(); !slices.Equal(got, []bits.Mask{0b011, 0b100, 0b101}) {
		t.Fatalf("b' = %v after a = a ^ 1, want [3 4 5]", got)
	}
}

func TestSubstitutePanicsOnIllegalFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("factor containing target must panic")
		}
	}()
	s := Identity(2)
	s.Substitute(0, bits.Bit(0))
}

func TestStringParseRoundTrip(t *testing.T) {
	src := rng.New(14)
	for trial := 0; trial < 25; trial++ {
		n := 1 + src.Intn(5)
		p := perm.Random(n, src)
		s, _ := FromPerm(p)
		back, err := Parse(n, s.String())
		if err != nil {
			t.Fatalf("parse of\n%s\nfailed: %v", s, err)
		}
		if !back.Equal(s) {
			t.Fatalf("round trip changed expansion:\n%s\nvs\n%s", s, back)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		n    int
		text string
	}{
		{2, "a' = a"},                 // b missing
		{2, "a' = a\nb' = b\na' = 1"}, // duplicate
		{2, "a' = a ^ c\nb' = b"},     // variable beyond n
		{2, "a' = a ^\nb' = b"},       // empty term
		{2, "q' = a\nb' = b"},         // unknown output
		{2, "a' a\nb' = b"},           // missing =
	}
	for _, c := range cases {
		if _, err := Parse(c.n, c.text); err == nil {
			t.Errorf("Parse(%q) should fail", c.text)
		}
	}
}

func TestParseAcceptsSpellings(t *testing.T) {
	for _, text := range []string{
		"a' = 1 ^ a\nb' = b",
		"a_out = 1 ⊕ a\nb_out = b",
		"ao = 1 + a\nbo = b",
		"# comment\na = 1 ^ a\n\nb = b",
	} {
		s, err := Parse(2, text)
		if err != nil {
			t.Errorf("Parse(%q): %v", text, err)
			continue
		}
		if !s.Out[0].Has(0) || !s.Out[0].Has(bits.Bit(0)) || s.Out[0].Len() != 2 {
			t.Errorf("Parse(%q) wrong expansion: %s", text, s)
		}
	}
}

func TestTermSetBasics(t *testing.T) {
	var ts TermSet
	if ts.Len() != 0 || ts.Has(3) {
		t.Error("zero TermSet should be empty")
	}
	if ts.Toggle(5) != 1 || !ts.Has(5) {
		t.Error("Toggle insert failed")
	}
	if ts.Toggle(5) != -1 || ts.Has(5) {
		t.Error("Toggle remove failed")
	}
	ts = newTermSet(1, 2, 3, 2) // the pair of 2s cancels
	if ts.Len() != 2 || !ts.Has(1) || !ts.Has(3) || ts.Has(2) {
		t.Errorf("newTermSet EXOR semantics wrong: %v", ts.Terms())
	}
}

func TestTermSetSize(t *testing.T) {
	if got := unsafe.Sizeof(TermSet{}); got > 48 {
		t.Fatalf("TermSet is %d bytes, want at most 48", got)
	}
}

func TestTermSetSortedOrder(t *testing.T) {
	ts := newTermSet(0b111, 0b1, 0b110, 0)
	got := ts.Sorted()
	// Ascending literal count then value: 1(const), a, bc, abc.
	want := []bits.Mask{0, 0b1, 0b110, 0b111}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
}

func TestEvalAgainstToPerm(t *testing.T) {
	src := rng.New(15)
	for trial := 0; trial < 20; trial++ {
		n := 1 + src.Intn(5)
		p := perm.Random(n, src)
		s, _ := FromPerm(p)
		for x := uint32(0); x < uint32(len(p)); x++ {
			if s.Eval(x) != p[x] {
				t.Fatalf("Eval(%d) = %d, want %d", x, s.Eval(x), p[x])
			}
		}
	}
}
