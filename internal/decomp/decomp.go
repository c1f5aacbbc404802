// Package decomp decomposes generalized Toffoli gates into the NCT library
// (NOT, CNOT, 3-bit Toffoli), making the paper's Section II-D discussion
// concrete: "an n-bit Toffoli (n > 3) gate … gates are expected to be
// macros that will be implemented by elementary gates", with the bounds of
// Barenco et al. [12].
//
// Two constructions are implemented, chosen automatically per gate:
//
//   - The V-chain (Barenco Lemma 7.2 shape): a gate with m controls and at
//     least m−2 free wires available as borrowed (dirty) ancillae expands
//     into 4(m−2) three-bit Toffoli gates. Ancillae are restored, so any
//     idle wire qualifies regardless of its value.
//
//   - The recursive split (Barenco Lemma 7.3): with at least one free
//     wire, C^m(X→t) = B A B A where A = C^⌈m/2⌉(X₁→a) and
//     B = C^(m−⌈m/2⌉+1)(X₂∪{a}→t); each half recursively decomposes,
//     using the other half's controls as its borrowed ancillae.
//
// A gate with no free wire at all (m = wires−1, wires ≥ 4) is *provably*
// not decomposable over NCT: it is an odd permutation (it transposes one
// pair of rows), while on four or more wires every NOT, CNOT, and TOF3
// flips 2^(wires−1), 2^(wires−2), resp. 2^(wires−3) ≥ 2 rows — all even
// permutations — so no cascade of them is odd. DecomposeCircuit returns
// ErrNoAncilla in that case; the caller must widen the circuit.
package decomp

import (
	"errors"
	"fmt"

	"repro/internal/bits"
	"repro/internal/circuit"
)

// ErrNoAncilla reports a gate that uses every wire of the circuit: such a
// gate is an odd permutation and cannot be built from NCT gates on the
// same wires (see the package comment for the parity argument).
var ErrNoAncilla = errors.New("decomp: gate touches every wire; NCT decomposition needs a free wire (parity obstruction)")

// DecomposeCircuit expands every gate of a cascade into an equivalent NCT
// cascade on the same number of wires. Gates already in NCT are kept
// unchanged. A cascade with an invalid gate is rejected.
func DecomposeCircuit(c *circuit.Circuit) (*circuit.Circuit, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("decomp: %w", err)
	}
	out := circuit.New(c.Wires)
	for _, g := range c.Gates {
		if err := emit(out, g); err != nil {
			return nil, fmt.Errorf("decomp: gate %s: %w", g, err)
		}
	}
	return out, nil
}

// emit appends the NCT expansion of g to out.
func emit(out *circuit.Circuit, g circuit.Gate) error {
	m := bits.Count(g.Controls)
	if m <= 2 {
		out.Append(g)
		return nil
	}
	used := g.Controls | bits.Bit(g.Target)
	var free []int
	for w := 0; w < out.Wires; w++ {
		if !bits.Has(used, w) {
			free = append(free, w)
		}
	}
	if len(free) == 0 {
		return ErrNoAncilla
	}
	if len(free) >= m-2 {
		vChain(out, g, free)
		return nil
	}
	return split(out, g, free[0])
}

// vChain emits the 4(m−2)-Toffoli borrowed-ancilla network.
func vChain(out *circuit.Circuit, g circuit.Gate, free []int) {
	controls := bits.Vars(g.Controls) // x1 … xm, ascending
	m := len(controls)
	anc := free[:m-2] // a1 … a(m−2)

	// G0 = T(xm, a(m−2) → t); Gj = T(x(m−j), a(m−2−j) → a(m−1−j));
	// G(m−2) = T(x2, x1 → a1). Network: G0 B G0 B with
	// B = G1 … G(m−3) G(m−2) G(m−3) … G1.
	g0 := circuit.NewGate(g.Target, controls[m-1], anc[m-3])
	var inner []circuit.Gate
	for j := 1; j <= m-3; j++ {
		inner = append(inner, circuit.NewGate(anc[m-2-j], controls[m-1-j], anc[m-3-j]))
	}
	last := circuit.NewGate(anc[0], controls[1], controls[0])
	b := append(append(append([]circuit.Gate{}, inner...), last), reversed(inner)...)

	out.Append(g0)
	out.Append(b...)
	out.Append(g0)
	out.Append(b...)
}

// split emits the recursive two-halves network B A B A around ancilla a.
func split(out *circuit.Circuit, g circuit.Gate, a int) error {
	controls := bits.Vars(g.Controls)
	m := len(controls)
	m1 := (m + 1) / 2
	var x1, x2 bits.Mask
	for i, c := range controls {
		if i < m1 {
			x1 |= bits.Bit(c)
		} else {
			x2 |= bits.Bit(c)
		}
	}
	gateA := circuit.Gate{Target: a, Controls: x1}
	gateB := circuit.Gate{Target: g.Target, Controls: x2 | bits.Bit(a)}
	for _, sub := range []circuit.Gate{gateB, gateA, gateB, gateA} {
		if err := emit(out, sub); err != nil {
			return err
		}
	}
	return nil
}

func reversed(gs []circuit.Gate) []circuit.Gate {
	out := make([]circuit.Gate, len(gs))
	for i, g := range gs {
		out[len(gs)-1-i] = g
	}
	return out
}
