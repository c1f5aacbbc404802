package verify

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/pprm"
	"repro/internal/rng"
)

// referenceSpec is the test reference for Spec: the same check one input at
// a time. It tabulates the cascade with Simulate and the specification with
// specTable and compares them row by row, so it shares nothing with Spec's
// bit-sliced simulation, transform or bijection check.
func referenceSpec(stage Stage, c *circuit.Circuit, s *pprm.Spec) error {
	if s == nil {
		return structural(stage, c, "no specification")
	}
	if c != nil && c.Wires != s.N {
		return structural(stage, c, "circuit has %d wires, specification %d", c.Wires, s.N)
	}
	got, verr := Simulate(stage, c)
	if verr != nil {
		return verr
	}
	want := specTable(s)
	for x := range got {
		if got[x] != want[x] {
			return &Error{Stage: stage, Wires: c.Wires, Input: uint32(x),
				Got: got[x], Want: want[x], Circuit: c.String()}
		}
	}
	return nil
}

// specTable tabulates a PPRM specification over all 2^n inputs, one byte
// per input: each output's term set is scattered into an indicator vector
// and a subset-XOR transform turns coefficients into function values.
func specTable(s *pprm.Spec) []uint32 {
	size := uint32(1) << uint(s.N)
	want := make([]uint32, size)
	vec := make([]byte, size)
	for j, out := range s.Out {
		clear(vec)
		for _, t := range out.Terms() {
			vec[uint32(t)&(size-1)] ^= 1
		}
		for b := uint(0); b < uint(s.N); b++ {
			bit := uint32(1) << b
			for x := uint32(0); x < size; x++ {
				if x&bit != 0 {
					vec[x] ^= vec[x&^bit]
				}
			}
		}
		for x := uint32(0); x < size; x++ {
			want[x] |= uint32(vec[x]) << uint(j)
		}
	}
	return want
}

// FuzzVerifySpecDifferential checks Spec against referenceSpec on random
// generalized-Toffoli cascades of 1 to 14 wires: a third against their own
// specification, a third with one gate's target moved (almost always a
// mismatch), and a third against another cascade's specification. Both
// must return nil together, or errors that agree on Stage, Wires, Input,
// Got, Want, Circuit and Detail.
func FuzzVerifySpecDifferential(f *testing.F) {
	for n := 1; n <= 14; n++ {
		for mode := uint8(0); mode < 3; mode++ {
			f.Add(n, 2+n%9, uint64(n), uint64(100+n), mode)
		}
	}
	f.Fuzz(func(t *testing.T, n, gates int, seed, other uint64, mode uint8) {
		if n < 1 || n > 14 || gates < 0 || gates > 30 {
			return
		}
		c := circuit.Random(n, gates, circuit.GT, rng.New(seed))
		spec := c.PPRM()
		switch mode % 3 {
		case 1:
			if gates > 0 && n > 1 {
				g := &c.Gates[int(other%uint64(gates))]
				g.Target = (g.Target + 1) % n
				g.Controls &^= 1 << uint(g.Target)
			}
		case 2:
			spec = circuit.Random(n, gates, circuit.GT, rng.New(other)).PPRM()
		}
		got, want := Spec(StageSearch, c, spec), referenceSpec(StageSearch, c, spec)
		if (got == nil) != (want == nil) {
			t.Fatalf("n=%d mode %d: Spec returned %v, the reference %v", n, mode%3, got, want)
		}
		if got == nil {
			return
		}
		g, w := got.(*Error), want.(*Error)
		if *g != *w {
			t.Fatalf("n=%d mode %d: Spec returned %+v, the reference %+v", n, mode%3, *g, *w)
		}
	})
}

// TestSpecMatchesReferenceOnBadInput: for every structural failure — no
// specification, a width mismatch, no circuit, a malformed gate, a width
// past MaxVars — Spec returns the reference's error.
func TestSpecMatchesReferenceOnBadInput(t *testing.T) {
	good := circuit.Random(4, 6, circuit.GT, rng.New(3))
	spec := good.PPRM()
	bad := func(edit func(c *circuit.Circuit)) *circuit.Circuit {
		c := &circuit.Circuit{Wires: good.Wires, Gates: append([]circuit.Gate(nil), good.Gates...)}
		edit(c)
		return c
	}
	cases := []struct {
		name string
		c    *circuit.Circuit
		s    *pprm.Spec
	}{
		{"no spec", good, nil},
		{"width", good, circuit.Random(5, 3, circuit.GT, rng.New(4)).PPRM()},
		{"no circuit", nil, spec},
		{"target", bad(func(c *circuit.Circuit) { c.Gates[1].Target = 4 }), spec},
		{"controls", bad(func(c *circuit.Circuit) { c.Gates[2].Controls = 1 << 4 }), spec},
		{"self-control", bad(func(c *circuit.Circuit) { c.Gates[0].Controls |= 1 << uint(c.Gates[0].Target) }), spec},
		{"too wide", &circuit.Circuit{Wires: MaxVars + 1}, pprm.NewSpec(MaxVars + 1)},
		{"short spec", good, &pprm.Spec{N: 4, Out: spec.Out[:2]}},
		{"long spec", good, &pprm.Spec{N: 4, Out: append(append([]pprm.TermSet(nil), spec.Out...), spec.Out[0])}},
	}
	for _, tc := range cases {
		got, want := Spec(StageDecomp, tc.c, tc.s), referenceSpec(StageDecomp, tc.c, tc.s)
		if want == nil {
			t.Fatalf("%s: the reference accepted the case", tc.name)
		}
		if got == nil || *got.(*Error) != *want.(*Error) {
			t.Errorf("%s: Spec returned %v, the reference %v", tc.name, got, want)
		}
	}
}

// BenchmarkSpecReference measures referenceSpec at BenchmarkSpec's widths,
// the cost Spec is compared with.
func BenchmarkSpecReference(b *testing.B) {
	for _, n := range specBenchWidths {
		b.Run(fmt.Sprintf("wires=%d", n), func(b *testing.B) {
			c := circuit.Random(n, 10, circuit.GT, rng.New(1))
			spec := c.PPRM()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := referenceSpec(StageSearch, c, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
