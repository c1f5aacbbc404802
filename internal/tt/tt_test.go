package tt

import (
	"testing"

	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
)

// augmented full-adder of Fig. 2(a): inputs c,b,a (a = LSB), outputs
// carry, sum, propagate.
func fullAdder() *Table {
	return FromFunc(3, 3, func(x uint32) uint32 {
		a := x & 1
		b := x >> 1 & 1
		c := x >> 2 & 1
		sum := a ^ b ^ c
		carry := a&b | b&c | a&c
		prop := a ^ b
		return carry<<2 | sum<<1 | prop // p_o is bit 0 like 'a'
	})
}

func TestMaxMultiplicity(t *testing.T) {
	// Fig. 2(a): output vectors (c_o,s_o,p_o) 011 and 101 each occur
	// twice (the † rows), everything else less.
	if got := fullAdder().MaxMultiplicity(); got != 2 {
		t.Errorf("full-adder max multiplicity = %d, want 2", got)
	}
}

func TestEmbedFullAdder(t *testing.T) {
	// One garbage output (⌈log2 2⌉ = 1) and one garbage input, exactly as
	// in Section II-A.
	e, err := Embed(fullAdder())
	if err != nil {
		t.Fatal(err)
	}
	if e.GarbageOutputs != 1 {
		t.Errorf("garbage outputs = %d, want 1", e.GarbageOutputs)
	}
	if e.ConstantInputs != 1 {
		t.Errorf("constant inputs = %d, want 1", e.ConstantInputs)
	}
	if e.Wires != 4 {
		t.Errorf("wires = %d, want 4", e.Wires)
	}
	p, err := perm.New(e.Spec)
	if err != nil {
		t.Fatalf("embedding is not reversible: %v", err)
	}
	// Real rows (constant input 0) must reproduce the original function.
	orig := fullAdder()
	for x := uint32(0); x < 8; x++ {
		if got := e.OriginalOutput(p[x]); got != orig.Rows[x] {
			t.Errorf("row %d: embedded output %03b, want %03b", x, got, orig.Rows[x])
		}
	}
}

func TestEmbedReversibleIsIdentityShape(t *testing.T) {
	// A function that is already reversible needs no garbage.
	tab := FromFunc(3, 3, func(x uint32) uint32 { return x ^ 5 })
	e, err := Embed(tab)
	if err != nil {
		t.Fatal(err)
	}
	if e.GarbageOutputs != 0 || e.ConstantInputs != 0 || e.Wires != 3 {
		t.Errorf("reversible function embedded with garbage: %+v", e)
	}
}

func TestEmbedSingleOutput(t *testing.T) {
	// AND of two inputs: multiplicity of output 0 is 3 → 2 garbage bits,
	// 3 outputs total, 3 wires, 1 constant input.
	and := FromFunc(2, 1, func(x uint32) uint32 {
		if x == 3 {
			return 1
		}
		return 0
	})
	e, err := Embed(and)
	if err != nil {
		t.Fatal(err)
	}
	if e.Wires != 3 || e.GarbageOutputs != 2 || e.ConstantInputs != 1 {
		t.Errorf("AND embedding shape wrong: %+v", e)
	}
	p, err := perm.New(e.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for x := uint32(0); x < 4; x++ {
		want := uint32(0)
		if x == 3 {
			want = 1
		}
		if e.OriginalOutput(p[x]) != want {
			t.Errorf("AND(%02b) embedded wrongly", x)
		}
	}
}

func TestEmbedRandomTables(t *testing.T) {
	src := rng.New(8)
	for trial := 0; trial < 40; trial++ {
		in := 1 + src.Intn(4)
		out := 1 + src.Intn(3)
		tab := FromFunc(in, out, func(x uint32) uint32 {
			return uint32(src.Intn(1 << uint(out)))
		})
		e, err := Embed(tab)
		if err != nil {
			t.Fatal(err)
		}
		p, err := perm.New(e.Spec)
		if err != nil {
			t.Fatalf("trial %d: not a permutation: %v", trial, err)
		}
		for x := uint32(0); x < uint32(len(tab.Rows)); x++ {
			if e.OriginalOutput(p[x]) != tab.Rows[x] {
				t.Fatalf("trial %d: row %d corrupted", trial, x)
			}
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := &Table{Inputs: 2, Outputs: 1, Rows: []uint32{0, 1, 0}}
	if bad.Validate() == nil {
		t.Error("short row list should fail")
	}
	bad2 := &Table{Inputs: 1, Outputs: 1, Rows: []uint32{0, 2}}
	if bad2.Validate() == nil {
		t.Error("out-of-range output should fail")
	}
}

func TestPartialTableValidate(t *testing.T) {
	good := &PartialTable{Inputs: 2, Outputs: 2,
		Rows: []uint32{0, 1, 2, 0}, Care: []uint32{3, 3, 3, 0}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid partial table rejected: %v", err)
	}
	if good.DontCareBits() != 2 {
		t.Errorf("DontCareBits = %d, want 2", good.DontCareBits())
	}
	bad := &PartialTable{Inputs: 2, Outputs: 2,
		Rows: []uint32{1, 0, 0, 0}, Care: []uint32{2, 3, 3, 3}}
	if bad.Validate() == nil {
		t.Error("row setting unspecified bit should fail")
	}
	short := &PartialTable{Inputs: 2, Outputs: 1, Rows: []uint32{0, 0, 0, 0}, Care: []uint32{1}}
	if short.Validate() == nil {
		t.Error("short care list should fail")
	}
}

func TestEmbedPartialHonorsCareBits(t *testing.T) {
	// AND with the output of row 0 unspecified.
	pt := &PartialTable{Inputs: 2, Outputs: 1,
		Rows: []uint32{0, 0, 0, 1}, Care: []uint32{0, 1, 1, 1}}
	e, full, err := EmbedPartial(pt, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := perm.New(e.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for x := uint32(1); x < 4; x++ { // specified rows only
		if got := e.OriginalOutput(p[x]); got != pt.Rows[x] {
			t.Errorf("row %d: got %d, want %d", x, got, pt.Rows[x])
		}
	}
	// The completed table must agree with the embedding on row 0 too.
	if got := e.OriginalOutput(p[0]); got != full.Rows[0] {
		t.Error("completed table and embedding disagree on the don't-care row")
	}
}

func TestEmbedPartialPicksSmallerExpansion(t *testing.T) {
	// A function whose don't-care completion can become linear: output =
	// parity on half the rows, unspecified elsewhere. The parity
	// completion has a tiny PPRM; the all-zeros completion does not.
	pt := &PartialTable{Inputs: 3, Outputs: 1,
		Rows: make([]uint32, 8), Care: make([]uint32, 8)}
	for x := 0; x < 8; x++ {
		if x%2 == 0 { // specify even rows with their parity
			pt.Rows[x] = uint32(OnesCount(uint32(x)) & 1)
			pt.Care[x] = 1
		}
	}
	eBest, _, err := EmbedPartial(pt, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the all-zeros completion explicitly.
	zero := pt.assign(func(int, int) uint32 { return 0 })
	eZero, err := Embed(zero)
	if err != nil {
		t.Fatal(err)
	}
	termsOf := func(e *Embedding) int {
		s, err := pprm.FromPerm(perm.Perm(e.Spec))
		if err != nil {
			t.Fatal(err)
		}
		return s.Terms()
	}
	if termsOf(eBest) > termsOf(eZero) {
		t.Errorf("EmbedPartial picked a larger expansion (%d) than all-zeros (%d)",
			termsOf(eBest), termsOf(eZero))
	}
}
