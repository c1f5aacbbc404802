package bench

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/tt"
)

func pub(gates, cost int) *Published { return &Published{Gates: gates, Cost: cost} }

// addExamples adds the worked examples of Section V-C whose
// specifications the paper prints verbatim, each with the gate count of
// the circuit the paper prints for it.
func addExamples(l *library) {
	example := func(name, desc string, vals []int, real, paperGates int) {
		b := fromPerm(name, desc, vals, real)
		b.PaperGates = paperGates
		l.add(b)
	}
	example("ex1", "Example 1 of [7]: paper's first worked example",
		[]int{1, 0, 3, 2, 5, 7, 4, 6}, 3, 4)
	example("shiftright3", "Example 2: wraparound shift right by one (3 variables)",
		[]int{7, 0, 1, 2, 3, 4, 5, 6}, 3, 3)
	example("fredkin3", "Example 3: Fredkin gate realized with Toffoli gates",
		[]int{0, 1, 2, 3, 4, 6, 5, 7}, 3, 3)
	example("swap3", "Example 4: swap of two adjacent values (3 variables)",
		[]int{0, 1, 2, 4, 3, 5, 6, 7}, 3, 6)
	example("swap4", "Example 5: swap of two adjacent values (4 variables)",
		[]int{0, 1, 2, 3, 4, 5, 6, 8, 7, 9, 10, 11, 12, 13, 14, 15}, 4, 7)
	example("shiftleft3", "Example 6: wraparound shift left by one (3 variables)",
		[]int{1, 2, 3, 4, 5, 6, 7, 0}, 3, 3)
	example("shiftleft4", "Example 7: wraparound shift left by one (4 variables)",
		[]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0}, 4, 4)
	example("fulladder", "Example 8: augmented full-adder (Fig. 2(b) embedding)",
		[]int{0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5}, 3, 4)
}

// addLiteratureBenchmarks adds the Table IV functions taken from the
// literature, with the paper's own results and the best published ones.
func addLiteratureBenchmarks(l *library) {
	b := fromTable("2of5", "outputs 1 iff exactly two of the five inputs are 1",
		tt.FromFunc(5, 1, func(x uint32) uint32 {
			if tt.OnesCount(x) == 2 {
				return 1
			}
			return 0
		}))
	b.PaperGates, b.PaperCost, b.Best = 20, 100, pub(15, 107)
	l.add(b)

	b = fromTable("rd32", "2-bit binary count of ones of three inputs",
		tt.FromFunc(3, 2, func(x uint32) uint32 { return uint32(tt.OnesCount(x)) }))
	b.PaperGates, b.PaperCost, b.Best, b.NCT = 4, 8, pub(4, 8), true
	l.add(b)

	b = fromPerm("3_17", "the 3_17 benchmark of Maslov's suite",
		[]int{7, 1, 4, 3, 0, 2, 6, 5}, 3)
	b.PaperGates, b.PaperCost, b.Best, b.NCT = 6, 14, pub(6, 12), true
	l.add(b)

	b = fromPerm("4_49", "the 4_49 benchmark of Maslov's suite",
		[]int{15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11}, 4)
	b.PaperGates, b.PaperCost = 13, 61
	b.Best = pub(16, 58)
	l.add(b)

	b = fromPerm("alu", "Example 13: 2-data-input ALU with three control signals (Fig. 9)",
		[]int{16, 17, 18, 19, 0, 20, 21, 22, 23, 24, 25, 11, 12, 26, 27, 15,
			28, 13, 14, 29, 8, 9, 10, 30, 31, 1, 2, 3, 4, 5, 6, 7}, 5)
	b.PaperGates, b.PaperCost = 18, 114
	l.add(b)

	b = fromTable("rd53", "Example 9: 3-bit binary count of ones of five inputs (MCNC)",
		tt.FromFunc(5, 3, func(x uint32) uint32 { return uint32(tt.OnesCount(x)) }))
	b.PaperGates, b.PaperCost, b.Best = 13, 116, pub(16, 75)
	l.add(b)

	b = fromPerm("xor5", "parity of five inputs replaces the first input",
		linearParity(5), 5)
	b.PaperGates, b.PaperCost, b.Best, b.NCT = 4, 4, pub(4, 4), true
	l.add(b)

	b = fromTable("4mod5", "outputs 1 iff the 4-bit input is divisible by 5",
		tt.FromFunc(4, 1, func(x uint32) uint32 {
			if x%5 == 0 {
				return 1
			}
			return 0
		}))
	b.PaperGates, b.PaperCost, b.Best, b.NCT = 5, 13, pub(5, 13), true
	l.add(b)

	b = fromTable("5mod5", "outputs 1 iff the 5-bit input is divisible by 5",
		tt.FromFunc(5, 1, func(x uint32) uint32 {
			if x%5 == 0 {
				return 1
			}
			return 0
		}))
	b.PaperGates, b.PaperCost, b.Best = 11, 91, pub(10, 90)
	l.add(b)

	b = fromPerm("ham3", "stand-in for the ham3 benchmark (exact spec unavailable)",
		[]int{0, 7, 1, 6, 3, 4, 2, 5}, 3)
	b.PaperGates, b.PaperCost, b.Best, b.NCT, b.StandIn = 5, 9, pub(5, 7), true, true
	l.add(b)

	b = &Benchmark{
		Name:        "ham7",
		Description: "stand-in for the ham7 benchmark: Hamming(7,4) encoder permutation",
		Wires:       7, RealInputs: 7,
		Spec:     hamming7(),
		PPRMSpec: pprmFromPerm(hamming7()),
		StandIn:  true,
	}
	b.PaperGates, b.PaperCost, b.Best = 24, 68, pub(23, 81)
	l.add(b)

	b = fromPerm("hwb4", "hidden weighted bit: input rotated left by its weight",
		hwb(4), 4)
	b.PaperGates, b.PaperCost, b.Best, b.NCT = 15, 35, pub(17, 63), true
	l.add(b)

	for _, g := range []struct {
		n, gates, cost int
		best           *Published
	}{
		{6, 5, 5, pub(5, 5)}, {10, 9, 9, pub(9, 9)}, {20, 19, 19, pub(19, 19)},
	} {
		gb := &Benchmark{
			Name:        fmt.Sprintf("graycode%d", g.n),
			Description: "binary-to-Gray-code converter",
			Wires:       g.n, RealInputs: g.n,
			PaperGates: g.gates, PaperCost: g.cost, Best: g.best, NCT: true,
		}
		gb.PPRMSpec = graycodePPRM(g.n)
		if g.n <= 20 {
			gb.Spec = graycodePerm(g.n)
		}
		l.add(gb)
	}

	for _, m := range []struct {
		name        string
		k, modulus  int
		gates, cost int
		best        *Published
	}{
		{"mod5adder", 3, 5, 19, 127, pub(21, 125)},
		{"mod32adder", 5, 32, 15, 154, nil},
		{"mod15adder", 4, 15, 10, 71, nil},
		{"mod64adder", 6, 64, 26, 333, nil},
	} {
		ab := fromPerm(m.name,
			fmt.Sprintf("(a+b) mod %d on the b wires, a preserved", m.modulus),
			modAdder(m.k, m.modulus), 2*m.k)
		ab.PaperGates, ab.PaperCost, ab.Best = m.gates, m.cost, m.best
		l.add(ab)
	}
}

// addNewBenchmarks adds the functions the paper introduces.
func addNewBenchmarks(l *library) {
	b := fromPerm("majority5", "Example 10: majority of five inputs",
		[]int{0, 1, 2, 3, 4, 5, 6, 27, 7, 8, 9, 28, 10, 29, 30, 31,
			11, 12, 13, 16, 14, 17, 18, 19, 15, 20, 21, 22, 23, 24, 25, 26}, 5)
	b.PaperGates, b.PaperCost = 16, 104
	l.add(b)

	b = fromTable("majority3", "majority of three inputs",
		tt.FromFunc(3, 1, func(x uint32) uint32 {
			if tt.OnesCount(x) >= 2 {
				return 1
			}
			return 0
		}))
	b.PaperGates, b.PaperCost, b.NCT = 4, 16, true
	l.add(b)

	b = fromPerm("decod24", "Example 11: 2:4 decoder with two garbage inputs",
		[]int{1, 2, 4, 8, 0, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15}, 2)
	b.PaperGates, b.PaperCost = 11, 31
	l.add(b)

	b = fromPerm("5one013", "Example 12: 1 iff the input weight is 0, 1, or 3",
		[]int{16, 17, 18, 3, 19, 4, 5, 20, 21, 6, 7, 22, 8, 23, 24, 9,
			25, 10, 11, 26, 12, 27, 28, 13, 14, 29, 30, 15, 31, 0, 1, 2}, 5)
	b.PaperGates, b.PaperCost = 19, 95
	l.add(b)

	b = fromTable("5one245", "1 iff the input weight is 2, 4, or 5",
		tt.FromFunc(5, 1, func(x uint32) uint32 {
			switch tt.OnesCount(x) {
			case 2, 4, 5:
				return 1
			}
			return 0
		}))
	b.PaperGates, b.PaperCost = 20, 104
	l.add(b)

	b = fromPerm("6one135", "1 iff the input weight is odd (6 variables)",
		linearParity(6), 6)
	b.PaperGates, b.PaperCost, b.NCT = 5, 5, true
	l.add(b)

	b = fromPerm("6one0246", "1 iff the input weight is even (6 variables)",
		notParity(6), 6)
	b.PaperGates, b.PaperCost, b.NCT = 6, 6, true
	l.add(b)

	for _, s := range []struct {
		n, gates, cost int
		best           *Published
	}{
		{10, 27, 1469, pub(19, 1198)}, {15, 30, 3500, nil}, {28, 56, 14310, nil},
	} {
		sb := &Benchmark{
			Name: fmt.Sprintf("shift%d", s.n),
			Description: "Example 14: controlled wraparound shifter — two control " +
				"signals select a shift of 0–3 positions",
			Wires:      s.n + 2,
			RealInputs: s.n + 2,
			PaperGates: s.gates, PaperCost: s.cost, Best: s.best,
		}
		n := s.n
		sb.PPRMSpec = func() (*pprm.Spec, error) {
			return shifterCircuit(n).PPRM(), nil
		}
		if s.n+2 <= 20 {
			sb.Spec = shifterCircuit(s.n).Perm()
		}
		l.add(sb)
	}
}

// linearParity returns the permutation replacing input 0 with the parity of
// all n inputs (xor5, 6one135).
func linearParity(n int) []int {
	size := 1 << uint(n)
	out := make([]int, size)
	for x := 0; x < size; x++ {
		p := tt.OnesCount(uint32(x)) & 1
		out[x] = x&^1 | p
	}
	return out
}

// notParity replaces input 0 with the complement of the parity (6one0246).
func notParity(n int) []int {
	out := linearParity(n)
	for x := range out {
		out[x] ^= 1
	}
	return out
}

// hwb returns the hidden-weighted-bit permutation: the input rotated left
// by its Hamming weight.
func hwb(n int) []int {
	size := 1 << uint(n)
	out := make([]int, size)
	for x := 0; x < size; x++ {
		w := tt.OnesCount(uint32(x)) % n
		rot := (x<<uint(w) | x>>uint(n-w)) & (size - 1)
		out[x] = rot
	}
	return out
}

// hamming7 returns the stand-in ham7 permutation: data bits pass through
// and each parity wire is XORed with the Hamming(7,4) parity of the data
// bits it covers, followed by a conditioned inversion to make the function
// nonlinear (the published ham7 is nonlinear).
func hamming7() perm.Perm {
	c := circuit.New(7)
	// Parity wires 0,1,3 (1-indexed Hamming positions 1,2,4); data wires
	// 2,4,5,6 (positions 3,5,6,7).
	c.Append(
		circuit.NewGate(0, 2), circuit.NewGate(0, 4), circuit.NewGate(0, 6),
		circuit.NewGate(1, 2), circuit.NewGate(1, 5), circuit.NewGate(1, 6),
		circuit.NewGate(3, 4), circuit.NewGate(3, 5), circuit.NewGate(3, 6),
		circuit.NewGate(2, 0, 1), // nonlinear twist
	)
	return c.Perm()
}

// modAdder returns the permutation of 2k wires computing
// b ← (a+b) mod m when both halves encode values < m, and the identity on
// the remaining (invalid) codes: a occupies the low k wires, b the high k.
func modAdder(k, m int) []int {
	size := 1 << uint(2*k)
	half := 1 << uint(k)
	out := make([]int, size)
	for x := 0; x < size; x++ {
		a := x % half
		b := x / half
		if a < m && b < m {
			out[x] = a + ((a+b)%m)*half
		} else {
			out[x] = x
		}
	}
	return out
}

// graycodePerm returns the binary→Gray converter: out_i = x_i ⊕ x_{i+1}.
func graycodePerm(n int) perm.Perm {
	size := 1 << uint(n)
	p := make(perm.Perm, size)
	for x := 0; x < size; x++ {
		p[x] = uint32(x) ^ uint32(x)>>1
	}
	return p
}

// graycodePPRM returns the converter's expansion directly (n CNOT terms).
func graycodePPRM(n int) func() (*pprm.Spec, error) {
	return func() (*pprm.Spec, error) {
		s := pprm.Identity(n)
		for i := 0; i < n-1; i++ {
			s.Out[i].Toggle(bits.Bit(i + 1))
		}
		return s, nil
	}
}

// shifterCircuit builds the reference realization of Example 14's shifter:
// a controlled increment by 1 (conditioned on control wire n) cascaded with
// a controlled increment by 2 (conditioned on control wire n+1), for
// 2n − 1 gates in total. Data wires are 0..n−1 (wire 0 = LSB); the
// function maps data value d to (d + s) mod 2^n where s is the 2-bit
// control value, matching the paper's example {0,1,…} → {2,3,…,0,1} for
// control 10.
func shifterCircuit(n int) *circuit.Circuit {
	c := circuit.New(n + 2)
	c0, c1 := n, n+1
	// +1 controlled on c0: ripple from the top down so lower carries are
	// still the original bits.
	for i := n - 1; i >= 0; i-- {
		controls := []int{c0}
		for j := 0; j < i; j++ {
			controls = append(controls, j)
		}
		c.Append(circuit.NewGate(i, controls...))
	}
	// +2 controlled on c1: same ripple starting at bit 1.
	for i := n - 1; i >= 1; i-- {
		controls := []int{c1}
		for j := 1; j < i; j++ {
			controls = append(controls, j)
		}
		c.Append(circuit.NewGate(i, controls...))
	}
	return c
}
