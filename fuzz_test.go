package rmrls

// Native Go fuzz targets for every text-format parser and for the central
// algebraic invariants. `go test` exercises the seed corpus; `go test
// -fuzz=FuzzX` explores further.

import (
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/tt"
)

func FuzzPermParse(f *testing.F) {
	f.Add("{1, 0, 7, 2, 3, 4, 5, 6}")
	f.Add("0 1 2 3")
	f.Add("{}")
	f.Add("{1,1}")
	f.Add("{-1, 0}")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := perm.Parse(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse accepted an invalid permutation %q: %v", s, err)
		}
	})
}

func FuzzCircuitParse(f *testing.F) {
	f.Add(3, "TOF1(a) TOF3(c,a,b)")
	f.Add(2, "TOF2(a,b)")
	f.Add(4, "TOF4(d,c,b,a)")
	f.Add(3, "TOF2(a,a)")
	f.Fuzz(func(t *testing.T, n int, s string) {
		if n < 1 || n > 8 {
			return
		}
		c, err := ParseCircuit(n, s)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseCircuit accepted invalid cascade %q: %v", s, err)
		}
		// Round trip through String must preserve the function.
		back, err := ParseCircuit(n, c.String())
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", c.String(), err)
		}
		if !back.Perm().Equal(c.Perm()) {
			t.Fatalf("round trip changed function for %q", s)
		}
	})
}

func FuzzPPRMParse(f *testing.F) {
	f.Add(2, "a' = a ^ 1\nb' = b")
	f.Add(3, "a' = a\nb' = b ^ ac\nc' = c")
	f.Add(2, "a = 1 + a\nb = ab")
	f.Fuzz(func(t *testing.T, n int, s string) {
		if n < 1 || n > 6 {
			return
		}
		spec, err := pprm.Parse(n, s)
		if err != nil {
			return
		}
		// String → Parse must reproduce the expansion.
		back, err := pprm.Parse(n, spec.String())
		if err != nil {
			t.Fatalf("re-parse of valid spec failed: %v", err)
		}
		if !back.Equal(spec) {
			t.Fatalf("round trip changed expansion for %q", s)
		}
	})
}

func FuzzPLAParse(f *testing.F) {
	f.Add(".i 2\n.o 1\n01 1\n.e")
	f.Add(".i 3\n.o 2\n1-1 10\n000 01\n.e")
	f.Add(".i 1\n.o 1\n0 1\n1 0")
	// Regression seeds: .i redefinition after a cube used to index rows
	// of the wrong width and panic; oversized directive arguments used to
	// wrap the int parse.
	f.Add(".i 1\n.o 1\n0 1\n.i 2\n01 1")
	f.Add(".i 99999999999999999999\n.o 1\n0 1")
	f.Add(".i 2\n.o 1\n01 1\n01 0")
	f.Add(".i 2\n.o 1\n01 1\n.e\n.i 3")
	f.Fuzz(func(t *testing.T, s string) {
		pt, err := tt.ParsePLAPartial(s)
		if err != nil {
			return
		}
		if err := pt.Validate(); err != nil {
			t.Fatalf("ParsePLAPartial accepted an invalid table: %v", err)
		}
		// The completion with every don't-care at 0.
		tab := &tt.Table{Inputs: pt.Inputs, Outputs: pt.Outputs, Rows: pt.Rows}
		if _, err := tt.Embed(tab); err != nil {
			t.Fatalf("valid PLA table failed to embed: %v", err)
		}
	})
}

func FuzzSubstituteInvariants(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0), uint16(2))
	f.Add(uint64(7), uint8(4), uint8(2), uint16(9))
	// The largest word-form size and the smallest slice-form one.
	f.Add(uint64(3), uint8(5), uint8(1), uint16(0x2d))
	f.Add(uint64(5), uint8(6), uint8(6), uint16(0x4b))
	// Sparse eight-variable specs, built from short cascades.
	f.Add(uint64(2), uint8(15), uint8(0), uint16(0))
	f.Add(uint64(9), uint8(14), uint8(3), uint16(0x41))
	f.Fuzz(func(t *testing.T, seed uint64, vars, target uint8, factorBits uint16) {
		n := int(vars%8) + 1
		tgt := int(target) % n
		factor := bits.Mask(factorBits) & (1<<uint(n) - 1) &^ bits.Bit(tgt)
		var p Perm
		var spec *pprm.Spec
		if vars&8 != 0 {
			// A short cascade leaves some outputs free of some variables,
			// so a copy shares storage with outputs Substitute changes.
			c := randomCircuit(n, 1+int(seed%6), circuit.GT, seed)
			p, spec = c.Perm(), c.PPRM()
		} else {
			p = RandomFunction(n, seed)
			var err error
			if spec, err = pprm.FromPerm(p); err != nil {
				t.Fatal(err)
			}
		}
		before := spec.Terms()
		orig := spec.Clone()
		probeDelta, probeHash, _ := spec.SubstituteProbe(tgt, factor, nil)
		var pr pprm.Prober
		pr.Load(spec)
		pr.Target(tgt)
		if pr.Delta(factor) != probeDelta || pr.Hash() != probeHash {
			t.Fatal("Prober disagrees with SubstituteProbe")
		}
		cp, copyDelta := spec.SubstituteCopy(tgt, factor)
		var buf []bits.Mask
		run, runDelta := pprm.AppendSubstituteRun(nil, spec.AppendRun(nil), n, tgt, factor, &buf)
		if !slices.Equal(run, cp.AppendRun(nil)) || runDelta != copyDelta {
			t.Fatal("AppendSubstituteRun disagrees with SubstituteCopy")
		}
		// A copy on another wire shares with spec outputs that the
		// in-place call below changes.
		other, _ := spec.SubstituteCopy((tgt+1)%n, 0)
		if !spec.Equal(orig) {
			t.Fatal("SubstituteCopy changed its source")
		}
		otherWant := other.Clone()
		d1 := spec.Substitute(tgt, factor)
		if spec.Terms() != before+d1 {
			t.Fatal("delta does not match term count")
		}
		if probeDelta != d1 || probeHash != spec.Hash() {
			t.Fatal("SubstituteProbe disagrees with Substitute")
		}
		if copyDelta != d1 || cp.Hash() != spec.Hash() || !cp.Equal(spec) {
			t.Fatal("SubstituteCopy disagrees with Substitute")
		}
		if !other.Equal(otherWant) {
			t.Fatal("in-place Substitute changed an earlier copy")
		}
		d2 := spec.Substitute(tgt, factor)
		if d1+d2 != 0 {
			t.Fatal("substitution is not an involution")
		}
		if !spec.ToPerm().Equal(p) {
			t.Fatal("double substitution changed the function")
		}
	})
}
