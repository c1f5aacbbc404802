// Package spectral implements Walsh–Hadamard spectra of Boolean functions
// and a complexity-guided greedy synthesizer in the spirit of Miller &
// Dueck's spectral technique (reference [18] of the paper): "the best
// translation is determined to be that which results in the maximum
// positive change in the complexity measure … because there is no
// backtracking or look-ahead, an error is declared if no translation can
// be found."
//
// The exact complexity measure of [18] (based on Rademacher–Walsh spectra)
// is not recoverable in detail offline; this implementation uses the
// well-defined distance-to-identity measure
//
//	M(f) = Σ_i (2^n − Ŵ_{f_i}(e_i)) / 2
//
// where Ŵ_{f_i}(e_i) is output i's Walsh–Hadamard coefficient at the
// singleton frequency of input i (in ±1 encoding): Ŵ = 2^n exactly when
// output i equals input i, so M(f) = 0 iff f is the identity, and M counts
// the total number of disagreeing truth-table positions. The greedy
// translation loop matches [18]'s described control flow, but Synthesize
// does not rank gates by M(f) alone: it picks the gate that best improves
// the lexicographic tuple (fixed prefix length, Hamming error of the first
// unfixed row, M(f)), which makes the loop provably converge (see
// measure). DESIGN.md lists this as a documented stand-in.
package spectral

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/circuit"
	"repro/internal/perm"
)

// WHT computes the in-place Walsh–Hadamard transform of the ±1-encoded
// column: out[w] = Σ_x (−1)^{f(x)} (−1)^{w·x}. The slice length must be a
// power of two.
func WHT(col []int32) {
	n := len(col)
	for step := 1; step < n; step <<= 1 {
		for x := 0; x < n; x += step << 1 {
			for j := x; j < x+step; j++ {
				a, b := col[j], col[j+step]
				col[j], col[j+step] = a+b, a-b
			}
		}
	}
}

// Spectrum returns the Walsh–Hadamard spectrum of output bit `out` of the
// reversible function p, in ±1 encoding (f=0 ↦ +1, f=1 ↦ −1).
func Spectrum(p perm.Perm, out int) []int32 {
	col := make([]int32, len(p))
	for x, y := range p {
		if y>>uint(out)&1 == 0 {
			col[x] = 1
		} else {
			col[x] = -1
		}
	}
	WHT(col)
	return col
}

// Complexity is the distance-to-identity measure M(f): the total number of
// truth-table positions at which some output differs from its input.
// M(f) = 0 iff f is the identity.
func Complexity(p perm.Perm) int {
	n := p.Vars()
	total := 0
	for x, y := range p {
		d := uint32(x) ^ y
		for i := 0; i < n; i++ {
			if d>>uint(i)&1 == 1 {
				total++
			}
		}
	}
	return total
}

// ComplexitySpectral computes the same measure through the spectra —
// provided for cross-checking: Σ_i (2^n − Ŵ_{f_i}(e_i))/2.
func ComplexitySpectral(p perm.Perm) int {
	n := p.Vars()
	total := 0
	for i := 0; i < n; i++ {
		s := Spectrum(p, i)
		total += (len(p) - int(s[1<<uint(i)])) / 2
	}
	return total
}

// Result reports a greedy spectral synthesis run.
type Result struct {
	Circuit *circuit.Circuit
	Found   bool
	Steps   int
}

// Synthesize runs the greedy translation loop: at each step every
// generalized Toffoli gate is considered at the circuit's output side, the
// one yielding the best measure tuple is applied, and synthesis fails (no
// backtracking) if no gate strictly improves the measure. maxGates bounds
// the loop.
func Synthesize(p perm.Perm, maxGates int) (Result, error) {
	n := p.Vars()
	if n < 1 {
		return Result{}, fmt.Errorf("spectral: invalid permutation size %d", len(p))
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if maxGates <= 0 {
		maxGates = 8 * len(p)
	}
	f := append(perm.Perm(nil), p...)
	// Output-side gates collected in application order; the final cascade
	// is their reverse (same reasoning as in internal/mmd).
	var applied []circuit.Gate
	cur := measureOf(f)
	res := Result{}
	for cur.prefix < len(f) && len(applied) < maxGates {
		res.Steps++
		bestGate, bestM, ok := pickGate(f, cur, n)
		if !ok {
			return res, nil // greedy dead end (cannot happen; see below)
		}
		for x := range f {
			f[x] = bestGate.Apply(f[x])
		}
		applied = append(applied, bestGate)
		cur = bestM
	}
	if cur.prefix < len(f) {
		return res, nil
	}
	c := circuit.New(n)
	for i := len(applied) - 1; i >= 0; i-- {
		c.Append(applied[i])
	}
	res.Circuit = c
	res.Found = true
	return res, nil
}

// measure is the lexicographic complexity tuple: the fixed prefix length
// (maximized), the Hamming error of the first unfixed row (minimized), and
// the total Hamming error (minimized). The transformation-based gates of
// internal/mmd each strictly improve this tuple — phase-1/2 gates reduce
// the first unfixed row's error by one without touching fixed rows — so a
// full greedy scan always has a strictly improving gate and the loop
// provably terminates with a solution, strengthening the convergence
// property the authors of [18] were still proving.
type measure struct {
	prefix   int
	firstErr int
	totalHam int
}

func (m measure) better(o measure) bool {
	if m.prefix != o.prefix {
		return m.prefix > o.prefix
	}
	if m.firstErr != o.firstErr {
		return m.firstErr < o.firstErr
	}
	return m.totalHam < o.totalHam
}

func measureOf(f perm.Perm) measure {
	m := measure{prefix: len(f)}
	for x, y := range f {
		d := popcount(uint32(x) ^ y)
		m.totalHam += d
		if d != 0 && x < m.prefix {
			m.prefix = x
			m.firstErr = d
		}
	}
	return m
}

// pickGate scans every gate (each target, each control subset) for the
// best strict lexicographic improvement.
func pickGate(f perm.Perm, cur measure, n int) (circuit.Gate, measure, bool) {
	var best circuit.Gate
	bestM := cur
	found := false
	g2 := make(perm.Perm, len(f))
	for target := 0; target < n; target++ {
		tb := bits.Bit(target)
		for controls := bits.Mask(0); controls < 1<<uint(n); controls++ {
			if controls&tb != 0 {
				continue
			}
			g := circuit.Gate{Target: target, Controls: controls}
			for x, y := range f {
				g2[x] = g.Apply(y)
			}
			m := measureOf(g2)
			if m.better(bestM) {
				bestM = m
				best = g
				found = true
			}
		}
	}
	return best, bestM, found
}

func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
