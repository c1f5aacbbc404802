package bench

import (
	"fmt"
	"testing"

	"repro/internal/perm"
	"repro/internal/tt"
)

func TestRegistryComplete(t *testing.T) {
	if len(TableIV()) != 29 {
		t.Errorf("Table IV has %d rows, want 29", len(TableIV()))
	}
	if len(Examples()) != 14 {
		t.Errorf("Examples has %d entries, want 14", len(Examples()))
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown name should error")
	}
}

// TestExamplesCarryPaperGates: every worked example knows the gate count
// of the circuit the paper prints for it — the registry is the one source
// the exp driver and the benchmark harness report against.
func TestExamplesCarryPaperGates(t *testing.T) {
	for _, b := range Examples() {
		if b.PaperGates <= 0 {
			t.Errorf("%s: PaperGates = %d, want the paper's printed gate count", b.Name, b.PaperGates)
		}
	}
}

func TestAllSpecsValid(t *testing.T) {
	for _, b := range All() {
		if b.Spec != nil {
			if err := b.Spec.Validate(); err != nil {
				t.Errorf("%s: invalid spec: %v", b.Name, err)
			}
			if b.Spec.Vars() != b.Wires {
				t.Errorf("%s: spec width %d ≠ wires %d", b.Name, b.Spec.Vars(), b.Wires)
			}
		}
		if b.RealInputs+b.GarbageInputs != b.Wires {
			t.Errorf("%s: real %d + garbage %d ≠ wires %d",
				b.Name, b.RealInputs, b.GarbageInputs, b.Wires)
		}
		spec, err := b.PPRMSpec()
		if err != nil {
			t.Errorf("%s: PPRM: %v", b.Name, err)
			continue
		}
		if spec.N != b.Wires {
			t.Errorf("%s: PPRM width %d ≠ wires %d", b.Name, spec.N, b.Wires)
		}
	}
}

func TestPPRMMatchesSpec(t *testing.T) {
	for _, b := range All() {
		if b.Spec == nil || b.Wires > 14 {
			continue // wide specs checked separately by sampling
		}
		spec, err := b.PPRMSpec()
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.ToPerm(); !got.Equal(b.Spec) {
			t.Errorf("%s: PPRM evaluates to a different function", b.Name)
		}
	}
}

func TestShifterFunction(t *testing.T) {
	// The paper's Example 14: control value s shifts the sequence by s.
	c := ShifterCircuit(4)
	p := c.Perm()
	for s := uint32(0); s < 4; s++ {
		for d := uint32(0); d < 16; d++ {
			in := s<<4 | d
			want := s<<4 | (d+s)%16
			if p[in] != want {
				t.Fatalf("shifter(s=%d, d=%d) = %d, want %d", s, d, p[in], want)
			}
		}
	}
	if c.Len() != 2*4-1 {
		t.Errorf("ShifterCircuit(4) has %d gates, want 7", c.Len())
	}
}

func TestShifterMatchesPublishedReference(t *testing.T) {
	// shift10's best published realization [13] has 19 gates = 2n−1.
	if got := ShifterCircuit(10).Len(); got != 19 {
		t.Errorf("ShifterCircuit(10) = %d gates, want 19", got)
	}
}

func TestShift28PPRMSampled(t *testing.T) {
	// shift28 is too wide to simulate exhaustively; check the symbolic
	// PPRM on sampled assignments against the arithmetic definition.
	b, err := ByName("shift28")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := b.PPRMSpec()
	if err != nil {
		t.Fatal(err)
	}
	const n = 28
	mask := uint32(1)<<n - 1
	for _, x := range []uint32{0, 1, mask, 0x0F0F0F0, 1 << 27, 3<<28 | 12345} {
		s := x >> n & 3
		d := x & mask
		want := s<<n | (d+s)&mask
		if got := spec.Eval(x); got != want {
			t.Errorf("shift28 PPRM(%#x) = %#x, want %#x", x, got, want)
		}
	}
}

func TestGraycode(t *testing.T) {
	b, err := ByName("graycode6")
	if err != nil {
		t.Fatal(err)
	}
	// Gray code of 5 is 111 ^ ... : g = x ^ (x>>1): gray(5)=7.
	if b.Spec[5] != 7 {
		t.Errorf("graycode6(5) = %d, want 7", b.Spec[5])
	}
	spec, _ := b.PPRMSpec()
	if got := spec.ToPerm(); !got.Equal(b.Spec) {
		t.Error("graycode PPRM disagrees with permutation")
	}
}

func TestHwb4Definition(t *testing.T) {
	b, err := ByName("hwb4")
	if err != nil {
		t.Fatal(err)
	}
	// weight(0b0011)=2 → rotate left 2 → 0b1100.
	if b.Spec[0b0011] != 0b1100 {
		t.Errorf("hwb4(0011) = %04b, want 1100", b.Spec[0b0011])
	}
	// weight 0 → unchanged.
	if b.Spec[0] != 0 {
		t.Errorf("hwb4(0) = %d, want 0", b.Spec[0])
	}
}

func TestModAdder(t *testing.T) {
	b, err := ByName("mod5adder")
	if err != nil {
		t.Fatal(err)
	}
	// a=3 (low wires), b=4 (high wires): b' = (3+4) mod 5 = 2.
	in := uint32(4<<3 | 3)
	want := uint32(2<<3 | 3)
	if got := b.Spec[in]; got != want {
		t.Errorf("mod5adder(a=3,b=4) = %d, want %d", got, want)
	}
	// Invalid codes map to themselves.
	in = uint32(7<<3 | 1)
	if got := b.Spec[in]; got != uint32(in) {
		t.Errorf("mod5adder on invalid code changed it")
	}
}

func TestMajorityEmbeddings(t *testing.T) {
	// majority3's auto-embedding must compute the majority on its real
	// rows (the embedding records which wire carries the output).
	b, err := ByName("majority3")
	if err != nil {
		t.Fatal(err)
	}
	if b.Embedding == nil {
		t.Fatal("majority3 should record its embedding")
	}
	for x := uint32(0); x < 8; x++ {
		want := uint32(0)
		if tt.OnesCount(x) >= 2 {
			want = 1
		}
		if got := b.Embedding.OriginalOutput(b.Spec[x]); got != want {
			t.Errorf("majority3(%03b) = %d, want %d", x, got, want)
		}
	}
}

func TestXor5IsLinear(t *testing.T) {
	b, err := ByName("xor5")
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := b.PPRMSpec()
	for i := 0; i < spec.N; i++ {
		for _, term := range spec.Out[i].Terms() {
			if term != 0 && term&(term-1) != 0 {
				t.Fatalf("xor5 expansion has nonlinear term in output %d", i)
			}
		}
	}
}

func TestPaperSpecsQuotedCorrectly(t *testing.T) {
	// Spot checks against the printed truth tables.
	alu, _ := ByName("alu")
	// Fig. 9: control 000 → F = 1 regardless of A, B.
	// Row 4 of the printed spec is 0 (see Example 13's specification).
	if alu.Spec[4] != 0 {
		t.Errorf("alu spec row 4 = %d, want 0", alu.Spec[4])
	}
	dec, _ := ByName("decod24")
	if dec.Spec[0] != 1 || dec.Spec[3] != 8 {
		t.Errorf("decod24 rows 0/3 = %d/%d, want 1/8", dec.Spec[0], dec.Spec[3])
	}
}

func TestFulladderMatchesFig2b(t *testing.T) {
	// The Example 8 spec is the Fig. 2(b) reversible augmented
	// full-adder; verify the carry/sum/propagate functions on real rows
	// (garbage input d = 0 ⇒ rows 0–7 of Fig. 2(b)).
	b, err := ByName("fulladder")
	if err != nil {
		t.Fatal(err)
	}
	for x := uint32(0); x < 8; x++ {
		a := x & 1
		bb := x >> 1 & 1
		c := x >> 2 & 1
		carry := a&bb | bb&c | a&c
		sum := a ^ bb ^ c
		prop := a ^ bb
		got := b.Spec[x]
		// Fig. 2(b) output order (c_o, s_o, p_o, g_o) with c_o the MSB.
		if got>>3&1 != carry || got>>2&1 != sum || got>>1&1 != prop {
			t.Errorf("fulladder(%03b): got %04b, want carry=%d sum=%d prop=%d",
				x, got, carry, sum, prop)
		}
	}
}

func TestStandInsAreMarked(t *testing.T) {
	for _, name := range []string{"ham3", "ham7"} {
		b, _ := ByName(name)
		if b == nil || !b.StandIn {
			t.Errorf("%s must be marked as a stand-in", name)
		}
	}
}

func TestHam7Nonlinear(t *testing.T) {
	b, _ := ByName("ham7")
	spec, _ := b.PPRMSpec()
	nonlinear := false
	for i := range spec.Out {
		for _, term := range spec.Out[i].Terms() {
			if term != 0 && term&(term-1) != 0 {
				nonlinear = true
			}
		}
	}
	if !nonlinear {
		t.Error("ham7 stand-in should be nonlinear like the original")
	}
	if err := perm.Perm(b.Spec).Validate(); err != nil {
		t.Error(err)
	}
}

func TestExtendedFamilies(t *testing.T) {
	fams := ExtendedFamilies()
	if len(fams) != 9 {
		t.Fatalf("extended families = %d", len(fams))
	}
	for _, b := range fams {
		if b.Spec == nil {
			t.Errorf("%s: missing spec", b.Name)
			continue
		}
		if err := b.Spec.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestHwbFamilyDefinition(t *testing.T) {
	for _, n := range []int{5, 6, 8} {
		b, err := ByName(fmt.Sprintf("hwb%d", n))
		if err != nil {
			t.Fatal(err)
		}
		// All-ones rotates by n ≡ 0: fixed point.
		all := uint32(1)<<uint(n) - 1
		if b.Spec[all] != all {
			t.Errorf("hwb%d(all-ones) = %d", n, b.Spec[all])
		}
	}
}

func TestSymDefinition(t *testing.T) {
	b, _ := ByName("6sym")
	// weight 3 → 1, weight 1 → 0, on the real rows via the embedding.
	if got := b.Embedding.OriginalOutput(b.Spec[0b000111]); got != 1 {
		t.Errorf("6sym(weight 3) = %d", got)
	}
	if got := b.Embedding.OriginalOutput(b.Spec[0b000001]); got != 0 {
		t.Errorf("6sym(weight 1) = %d", got)
	}
}

func TestRd73Definition(t *testing.T) {
	b, _ := ByName("rd73")
	if got := b.Embedding.OriginalOutput(b.Spec[0b1111111]); got != 7 {
		t.Errorf("rd73(weight 7) = %d", got)
	}
}

func TestMul3Mod16Reversible(t *testing.T) {
	b, _ := ByName("mul3mod16")
	if b.Spec[5] != 15 {
		t.Errorf("3·5 mod 16 = %d, want 15", b.Spec[5])
	}
}
