package decomp

import (
	"errors"
	"testing"

	"repro/internal/bits"
	"repro/internal/circuit"
	"repro/internal/rng"
)

// gateWith builds an m-control Toffoli on the given wires.
func gateWith(target int, controls ...int) circuit.Gate {
	return circuit.NewGate(target, controls...)
}

// decompose expands the one-gate cascade g on the given wires.
func decompose(g circuit.Gate, wires int) (*circuit.Circuit, error) {
	c := circuit.New(wires)
	c.Append(g)
	return DecomposeCircuit(c)
}

func checkEquivalent(t *testing.T, g circuit.Gate, wires int) *circuit.Circuit {
	t.Helper()
	dec, err := decompose(g, wires)
	if err != nil {
		t.Fatalf("decompose(%s, %d): %v", g, wires, err)
	}
	if !dec.NCTOnly() {
		t.Fatalf("decomposition of %s contains non-NCT gates: %s", g, dec)
	}
	want := circuit.New(wires)
	want.Append(g)
	if !dec.Perm().Equal(want.Perm()) {
		t.Fatalf("decomposition of %s on %d wires computes the wrong function:\n%s", g, wires, dec)
	}
	return dec
}

func TestSmallGatesUnchanged(t *testing.T) {
	for _, g := range []circuit.Gate{
		gateWith(0),
		gateWith(0, 1),
		gateWith(2, 0, 1),
	} {
		dec := checkEquivalent(t, g, 4)
		if dec.Len() != 1 {
			t.Errorf("NCT gate %s expanded to %d gates", g, dec.Len())
		}
	}
}

func TestVChainCounts(t *testing.T) {
	// With m−2 free wires: exactly 4(m−2) TOF3 gates (Barenco Lemma 7.2).
	for m := 3; m <= 8; m++ {
		wires := m + 1 + (m - 2) // m controls + target + m−2 ancillae
		controls := make([]int, m)
		for i := range controls {
			controls[i] = i + 1
		}
		g := gateWith(0, controls...)
		dec := checkEquivalent(t, g, wires)
		if m == 3 {
			// m=3 is TOF3 itself — emitted unchanged.
			continue
		}
		if want := 4 * (m - 2); dec.Len() != want {
			t.Errorf("m=%d: %d gates, want %d", m, dec.Len(), want)
		}
	}
}

func TestSingleAncillaSplit(t *testing.T) {
	// Exactly one free wire: the recursive split must still produce a
	// correct NCT cascade.
	for wires := 5; wires <= 9; wires++ {
		controls := make([]int, wires-2)
		for i := range controls {
			controls[i] = i + 1
		}
		g := gateWith(0, controls...) // m = wires−2 → one free wire
		dec := checkEquivalent(t, g, wires)
		if dec.Len() < 4 {
			t.Errorf("wires=%d: suspiciously small decomposition (%d gates)", wires, dec.Len())
		}
	}
}

func TestNoAncillaRejected(t *testing.T) {
	g := gateWith(0, 1, 2, 3) // 3 controls on 4 wires: no free wire
	_, err := decompose(g, 4)
	if !errors.Is(err, ErrNoAncilla) {
		t.Fatalf("err = %v, want ErrNoAncilla", err)
	}
}

// TestInvalidGateRejected: a gate off the circuit's wires, or one whose
// target is also a control, is an error, not a cascade.
func TestInvalidGateRejected(t *testing.T) {
	for _, g := range []circuit.Gate{
		{Target: 4},
		{Target: 0, Controls: bits.Bit(5)},
		{Target: 1, Controls: bits.Bit(1) | bits.Bit(2) | bits.Bit(3)},
	} {
		if dec, err := decompose(g, 4); err == nil {
			t.Errorf("gate %+v on 4 wires: got %s, want an error", g, dec)
		}
	}
}

func TestDirtyAncillaRestored(t *testing.T) {
	// The network must restore borrowed wires for *every* initial value —
	// checked implicitly by full-permutation equality, but spell out one
	// case: ancilla starts at 1.
	g := gateWith(0, 1, 2, 3, 4)
	dec, err := decompose(g, 7) // wires 5,6 free
	if err != nil {
		t.Fatal(err)
	}
	in := uint32(0b1111110) // controls on, ancilla bits 5,6 = 1
	out := dec.Apply(in)
	if out>>5&1 != 1 || out>>6&1 != 1 {
		t.Errorf("ancilla not restored: %07b → %07b", in, out)
	}
	if out&1 != 1 {
		t.Errorf("target not flipped: %07b → %07b", in, out)
	}
}

func TestDecomposeCircuit(t *testing.T) {
	src := rng.New(66)
	for trial := 0; trial < 20; trial++ {
		c := circuit.Random(7, 8, circuit.GT, src)
		// Skip circuits containing a full-width gate (no free wire).
		skip := false
		for _, g := range c.Gates {
			if g.Size() == c.Wires {
				skip = true
			}
		}
		if skip {
			continue
		}
		dec, err := DecomposeCircuit(c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !dec.NCTOnly() {
			t.Fatal("non-NCT output")
		}
		if !dec.Perm().Equal(c.Perm()) {
			t.Fatalf("trial %d: function changed", trial)
		}
	}
}

func TestRandomGatesAllWidths(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 60; trial++ {
		wires := 4 + src.Intn(6)
		m := 3 + src.Intn(wires-3) // controls, ≤ wires−1
		if m >= wires-0 {
			m = wires - 1
		}
		perm := src.Perm(wires)
		target := perm[0]
		var controls []int
		for _, w := range perm[1 : m+1] {
			controls = append(controls, w)
		}
		g := gateWith(target, controls...)
		if bits.Count(g.Controls)+1 == wires {
			continue // no free wire: rejected path tested elsewhere
		}
		checkEquivalent(t, g, wires)
	}
}
