package circuit

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/perm"
	"repro/internal/rng"
)

func TestGateApply(t *testing.T) {
	// TOF3 with controls a,b and target c on 3 wires.
	g := NewGate(2, 0, 1)
	cases := []struct{ in, want uint32 }{
		{0b000, 0b000},
		{0b011, 0b111}, // both controls set → target flips
		{0b111, 0b011},
		{0b001, 0b001}, // one control → unchanged
	}
	for _, c := range cases {
		if got := g.Apply(c.in); got != c.want {
			t.Errorf("Apply(%03b) = %03b, want %03b", c.in, got, c.want)
		}
	}
}

func TestGateSizes(t *testing.T) {
	if NewGate(0).Size() != 1 {
		t.Error("NOT size should be 1")
	}
	if NewGate(0, 1).Size() != 2 {
		t.Error("CNOT size should be 2")
	}
	if NewGate(0, 1, 2, 3).Size() != 4 {
		t.Error("TOF4 size should be 4")
	}
}

func TestNewGatePanicsOnTargetControl(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("target==control must panic")
		}
	}()
	NewGate(1, 1)
}

func TestGateString(t *testing.T) {
	// Paper notation: TOF3(c,a,b) = controls c and a, target b.
	g := NewGate(1, 2, 0)
	if got := g.String(); got != "TOF3(c,a,b)" {
		t.Errorf("String = %q, want TOF3(c,a,b)", got)
	}
	if got := NewGate(0).String(); got != "TOF1(a)" {
		t.Errorf("NOT String = %q", got)
	}
}

func TestFig3dCircuit(t *testing.T) {
	// TOF1(a) TOF3(c,a,b)… the paper's Fig. 3(d) realizes Fig. 1's
	// function {1,0,7,2,3,4,5,6}.
	c, err := Parse(3, "TOF1(a) TOF3(c,a,b) TOF3(b,a,c)")
	if err != nil {
		t.Fatal(err)
	}
	want := perm.MustFromInts([]int{1, 0, 7, 2, 3, 4, 5, 6})
	if !c.Perm().Equal(want) {
		t.Errorf("Fig. 3(d) circuit realizes %s, want %s", c.Perm(), want)
	}
}

func TestExample1Circuit(t *testing.T) {
	// Example 1: TOF3(c,a,b) TOF3(c,b,a) TOF3(c,a,b) TOF1(a) realizes
	// {1, 0, 3, 2, 5, 7, 4, 6}.
	c, err := Parse(3, "TOF3(c,a,b) TOF3(c,b,a) TOF3(c,a,b) TOF1(a)")
	if err != nil {
		t.Fatal(err)
	}
	want := perm.MustFromInts([]int{1, 0, 3, 2, 5, 7, 4, 6})
	if !c.Perm().Equal(want) {
		t.Errorf("Example 1 circuit realizes %s, want %s", c.Perm(), want)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"TOF2(a,a)", // repeated wire
		"TOF2(a,z)", // wire beyond width
		"NOT(a)",    // unknown mnemonic
		"TOF1()",    // no wires
		"TOF2(a b)", // bad separator
	} {
		if _, err := Parse(3, bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	src := rng.New(17)
	for trial := 0; trial < 30; trial++ {
		c := Random(5, 10, GT, src)
		back, err := Parse(5, c.String())
		if err != nil {
			t.Fatalf("round trip parse: %v (%s)", err, c)
		}
		if !back.Perm().Equal(c.Perm()) {
			t.Fatalf("round trip changed function: %s", c)
		}
	}
}

func TestInverse(t *testing.T) {
	src := rng.New(23)
	for trial := 0; trial < 20; trial++ {
		c := Random(4, 8, GT, src)
		inv := c.Inverse()
		if !c.Perm().Compose(inv.Perm()).IsIdentity() {
			t.Fatalf("inverse broken for %s", c)
		}
	}
}

func TestCircuitIsPermutation(t *testing.T) {
	src := rng.New(31)
	for trial := 0; trial < 20; trial++ {
		c := Random(6, 15, GT, src)
		if err := c.Perm().Validate(); err != nil {
			t.Fatalf("circuit simulation is not reversible: %v", err)
		}
	}
}

func TestRandomLibraryRespected(t *testing.T) {
	src := rng.New(37)
	for trial := 0; trial < 20; trial++ {
		if c := Random(8, 20, NCT, src); !c.NCTOnly() {
			t.Fatal("NCT random circuit contains large gates")
		}
	}
}

func TestRandomGateCount(t *testing.T) {
	src := rng.New(41)
	c := Random(6, 25, GT, src)
	if c.Len() != 25 {
		t.Errorf("Random circuit has %d gates, want 25", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestQuantumCost(t *testing.T) {
	// Cost table anchors (Section II-D): NOT/CNOT 1, TOF3 5, TOF4 13,
	// TOF5 29.
	anchors := []struct{ size, wires, want int }{
		{1, 3, 1},
		{2, 3, 1},
		{3, 3, 5},
		{4, 4, 13},
		{5, 5, 29},
		{6, 6, 61},  // no free wires: 2^6 − 3
		{6, 10, 38}, // ≥3 free wires: 12·3+2
		{6, 7, 52},  // 1 free wire: 24·2+4
	}
	for _, a := range anchors {
		if got := GateCost(a.size, a.wires); got != a.want {
			t.Errorf("GateCost(%d,%d) = %d, want %d", a.size, a.wires, got, a.want)
		}
	}
}

func TestCircuitQuantumCost(t *testing.T) {
	// Example 1's circuit: three TOF3 (5 each) + one NOT = 16… the paper
	// reports the rd32 circuit at cost 8; anchor on arithmetic instead:
	c, _ := Parse(3, "TOF3(c,a,b) TOF3(c,b,a) TOF3(c,a,b) TOF1(a)")
	if got := c.QuantumCost(); got != 16 {
		t.Errorf("QuantumCost = %d, want 16", got)
	}
}

func TestSimplifyCancelsAdjacent(t *testing.T) {
	c, _ := Parse(3, "TOF3(c,a,b) TOF3(c,a,b) TOF1(a)")
	s := c.Simplify()
	if s.Len() != 1 {
		t.Errorf("Simplify left %d gates (%s), want 1", s.Len(), s)
	}
	if !s.Perm().Equal(c.Perm()) {
		t.Error("Simplify changed the function")
	}
}

func TestSimplifyAcrossCommutingGates(t *testing.T) {
	// TOF1(a) and TOF2(b,c)… a NOT on a commutes with a CNOT b→c, so the
	// twin NOTs cancel across it.
	c, _ := Parse(3, "TOF1(a) TOF2(b,c) TOF1(a)")
	s := c.Simplify()
	if s.Len() != 1 {
		t.Errorf("Simplify left %d gates (%s), want 1", s.Len(), s)
	}
	if !s.Perm().Equal(c.Perm()) {
		t.Error("Simplify changed the function")
	}
}

func TestSimplifyPreservesFunction(t *testing.T) {
	src := rng.New(53)
	for trial := 0; trial < 40; trial++ {
		c := Random(4, 12, GT, src)
		s := c.Simplify()
		if !s.Perm().Equal(c.Perm()) {
			t.Fatalf("Simplify changed function of %s", c)
		}
		if s.Len() > c.Len() {
			t.Fatalf("Simplify grew the circuit")
		}
	}
}

func TestCommutesIsSound(t *testing.T) {
	// For every pair of random gates the commutes predicate must imply
	// function equality of the two orders.
	src := rng.New(59)
	for trial := 0; trial < 200; trial++ {
		c := Random(4, 2, GT, src)
		g1, g2 := c.Gates[0], c.Gates[1]
		ab := New(4)
		ab.Append(g1, g2)
		ba := New(4)
		ba.Append(g2, g1)
		if commutes(g1, g2) && !ab.Perm().Equal(ba.Perm()) {
			t.Fatalf("commutes(%s,%s) = true but orders differ", g1, g2)
		}
	}
}

func TestValidate(t *testing.T) {
	c := New(2)
	c.Append(Gate{Target: 5})
	if c.Validate() == nil {
		t.Error("out-of-range target should fail validation")
	}
	c2 := New(2)
	c2.Append(Gate{Target: 0, Controls: bits.Bit(0)})
	if c2.Validate() == nil {
		t.Error("target-in-controls should fail validation")
	}
}

func TestCostMonotoneInSize(t *testing.T) {
	for wires := 3; wires <= 16; wires++ {
		prev := 0
		for size := 1; size <= wires; size++ {
			c := GateCost(size, wires)
			if c < prev {
				t.Errorf("cost not monotone at size %d, wires %d: %d < %d", size, wires, c, prev)
			}
			prev = c
		}
	}
}

func TestCostMoreAncillaeNeverWorse(t *testing.T) {
	for size := 3; size <= 12; size++ {
		for wires := size; wires <= size+8; wires++ {
			if GateCost(size, wires+1) > GateCost(size, wires) {
				t.Errorf("extra free wire increased cost: size %d wires %d", size, wires)
			}
		}
	}
}

func TestDiagramRowsEqualWires(t *testing.T) {
	src := rng.New(71)
	for trial := 0; trial < 10; trial++ {
		n := 2 + src.Intn(5)
		c := Random(n, 5, GT, src)
		lines := 1
		for _, r := range c.Diagram() {
			if r == '\n' {
				lines++
			}
		}
		if lines != n {
			t.Errorf("diagram has %d lines for %d wires", lines, n)
		}
	}
}
