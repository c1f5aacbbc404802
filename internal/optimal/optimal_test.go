package optimal

import (
	"testing"

	"repro/internal/perm"
	"repro/internal/rng"
)

// Table I's optimal columns (Shende et al. [16]).
var wantNCT = []int{1, 12, 102, 625, 2780, 8921, 17049, 10253, 577}
var wantNCTS = []int{1, 15, 134, 844, 3752, 11194, 17531, 6817, 32}

func TestDistancesNCT(t *testing.T) {
	tab := Distances(NCT)
	if tab.Size() != 40320 {
		t.Fatalf("reached %d functions, want 40320", tab.Size())
	}
	counts, avg := tab.Histogram()
	if len(counts) != len(wantNCT) {
		t.Fatalf("max optimal depth = %d, want %d", len(counts)-1, len(wantNCT)-1)
	}
	for d, want := range wantNCT {
		if counts[d] != want {
			t.Errorf("NCT depth %d: %d functions, want %d (Table I)", d, counts[d], want)
		}
	}
	if avg < 5.86 || avg > 5.88 {
		t.Errorf("NCT average = %.3f, want ≈5.87 (Table I)", avg)
	}
}

func TestDistancesNCTS(t *testing.T) {
	tab := Distances(NCTS)
	if tab.Size() != 40320 {
		t.Fatalf("reached %d functions, want 40320", tab.Size())
	}
	counts, avg := tab.Histogram()
	if len(counts) != len(wantNCTS) {
		t.Fatalf("max optimal depth = %d, want %d", len(counts)-1, len(wantNCTS)-1)
	}
	for d, want := range wantNCTS {
		if counts[d] != want {
			t.Errorf("NCTS depth %d: %d functions, want %d (Table I)", d, counts[d], want)
		}
	}
	if avg < 5.62 || avg > 5.64 {
		t.Errorf("NCTS average = %.3f, want ≈5.63 (Table I)", avg)
	}
}

func TestLookup(t *testing.T) {
	tab := Distances(NCT)
	if d, err := tab.Lookup(perm.Identity(3)); err != nil || d != 0 {
		t.Errorf("identity distance = %d, %v; want 0", d, err)
	}
	// Fig. 1's function: the paper's circuit (Fig. 3(d)) has 3 gates and
	// is optimal.
	p := perm.MustFromInts([]int{1, 0, 7, 2, 3, 4, 5, 6})
	if d, err := tab.Lookup(p); err != nil || d != 3 {
		t.Errorf("Fig. 1 optimal distance = %d, %v; want 3", d, err)
	}
	// A single NOT gate.
	not := perm.MustFromInts([]int{1, 0, 3, 2, 5, 4, 7, 6})
	if d, err := tab.Lookup(not); err != nil || d != 1 {
		t.Errorf("NOT distance = %d, %v; want 1", d, err)
	}
}

func TestGeneratorCounts(t *testing.T) {
	// n=3: 3 NOTs, 6 CNOTs, 3 Toffolis = 12; NCTS adds 3 SWAPs.
	if got := len(generators(3, NCT)); got != 12 {
		t.Errorf("NCT generators = %d, want 12", got)
	}
	if got := len(generators(3, NCTS)); got != 15 {
		t.Errorf("NCTS generators = %d, want 15", got)
	}
}

func TestCircuitReconstruction(t *testing.T) {
	tab := Distances(NCT)
	src := rngNew()
	for trial := 0; trial < 60; trial++ {
		p := perm.Random(3, src)
		want, err := tab.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := tab.Circuit(p)
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != want {
			t.Fatalf("reconstructed %d gates, optimal is %d", c.Len(), want)
		}
		if !c.Perm().Equal(p) {
			t.Fatalf("reconstructed circuit realizes the wrong function")
		}
	}
}

func TestCircuitReconstructionIdentity(t *testing.T) {
	tab := Distances(NCT)
	c, err := tab.Circuit(perm.Identity(3))
	if err != nil || c.Len() != 0 {
		t.Errorf("identity reconstruction: %v, %d gates", err, c.Len())
	}
}

func TestCircuitReconstructionRejectsNCTS(t *testing.T) {
	tab := Distances(NCTS)
	if _, err := tab.Circuit(perm.Identity(3)); err == nil {
		t.Error("NCTS reconstruction should be rejected")
	}
}

func rngNew() *rng.Source { return rng.New(99) }
