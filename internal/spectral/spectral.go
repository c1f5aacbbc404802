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
