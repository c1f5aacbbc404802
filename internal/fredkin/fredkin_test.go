package fredkin

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/rng"
)

func TestFredkinSemantics(t *testing.T) {
	// The classic 3-bit Fredkin gate with control c swapping a, b is the
	// paper's Example 3 specification {0,1,2,3,4,6,5,7}.
	g := Gate{A: 0, B: 1, Controls: bits.Bit(2)}
	want := perm.MustFromInts([]int{0, 1, 2, 3, 4, 6, 5, 7})
	for x := uint32(0); x < 8; x++ {
		if g.Apply(x) != want[x] {
			t.Errorf("Apply(%03b) = %03b, want %03b", x, g.Apply(x), want[x])
		}
	}
	if g.Size() != 3 {
		t.Errorf("size = %d", g.Size())
	}
	if g.String() != "FRE3(c;a,b)" {
		t.Errorf("String = %q", g.String())
	}
}

func TestToToffoliMatchesGate(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		n := 3 + src.Intn(3)
		a := src.Intn(n)
		b := (a + 1 + src.Intn(n-1)) % n
		g := Gate{A: a, B: b}
		for w := 0; w < n; w++ {
			if w != a && w != b && src.Bool() {
				g.Controls |= bits.Bit(w)
			}
		}
		c := circuit.New(n)
		tg := g.ToToffoli()
		c.Append(tg[0], tg[1], tg[2])
		for x := uint32(0); x < 1<<uint(n); x++ {
			if c.Apply(x) != g.Apply(x) {
				t.Fatalf("trial %d: expansion disagrees at %b", trial, x)
			}
		}
	}
}

func TestRecognizeRoundTrip(t *testing.T) {
	// Example 3's Toffoli circuit TOF3(c,a,b) TOF3(c,b,a) TOF3(c,a,b)
	// must be recognized as a single Fredkin gate.
	c, err := circuit.Parse(3, "TOF3(c,a,b) TOF3(c,b,a) TOF3(c,a,b)")
	if err != nil {
		t.Fatal(err)
	}
	mixed := Recognize(c)
	if mixed.Len() != 1 || mixed.FredkinCount() != 1 {
		t.Fatalf("recognized %s (len %d)", mixed, mixed.Len())
	}
	if mixed.String() != "FRE3(c;b,a)" && mixed.String() != "FRE3(c;a,b)" {
		t.Errorf("mixed = %s", mixed)
	}
	// Semantics preserved in both directions.
	back := mixed.ToToffoli()
	if !back.Perm().Equal(c.Perm()) {
		t.Error("round trip changed the function")
	}
}

func TestRecognizePreservesFunction(t *testing.T) {
	src := rng.New(17)
	for trial := 0; trial < 40; trial++ {
		c := circuit.Random(4, 12, circuit.GT, src)
		mixed := Recognize(c)
		for x := uint32(0); x < 16; x++ {
			if mixed.Apply(x) != c.Apply(x) {
				t.Fatalf("trial %d: recognition changed the function", trial)
			}
		}
		if mixed.Len() > c.Len() {
			t.Fatalf("trial %d: recognition grew the cascade", trial)
		}
	}
}

func TestRecognizeLeavesPlainGates(t *testing.T) {
	c, _ := circuit.Parse(3, "TOF1(a) TOF2(b,c)")
	mixed := Recognize(c)
	if mixed.FredkinCount() != 0 || mixed.Len() != 2 {
		t.Errorf("spurious recognition: %s", mixed)
	}
}

func TestEmptyCascade(t *testing.T) {
	c := &Cascade{Wires: 2}
	if c.String() != "(identity)" || c.Len() != 0 {
		t.Error("empty cascade misbehaves")
	}
}
