// Package canon classifies reversible specifications up to input/output
// relabeling and polarity. Two permutations p and q are equivalent when
// q = T∘p∘T⁻¹ for a transform T that permutes the wires and inverts some
// of them — conjugation by an element of the hyperoctahedral group of
// order n!·2^n. Equivalent specifications have synthesis problems of
// identical difficulty, and a circuit for one converts into a circuit for
// the other by renaming wires and adding a NOT sandwich (see
// Transform.ConjugateCircuit), which is what the answer cache in
// internal/cache exploits: synthesize one class member, answer the whole
// class by conjugation.
//
// Canonicalize maps a permutation to a canonical class representative and
// the transform reaching it, by one rule. For n ≤ ExactVars the
// representative is the exact orbit minimum (the lexicographically
// smallest conjugate over all n!·2^n transforms), so two functions share
// it exactly when they are equivalent. Above that the representative is
// the function itself under the identity transform: only an exact repeat
// shares it, and no two distinct functions ever do. For a cache, that
// rule costs hit rate above ExactVars, never correctness.
package canon

import (
	"fmt"
	"sort"

	"repro/internal/bits"
	"repro/internal/circuit"
	"repro/internal/perm"
)

// ExactVars is the largest variable count for which Canonicalize scans the
// entire orbit and returns the exact lexicographic minimum. At 5 variables
// that is 5!·2^5 = 3,840 conjugates of a 32-row table, most abandoned
// within their first rows; at 6 it would be 46,080 conjugates of 64 rows,
// milliseconds per call, so the exact range stops at 5.
const ExactVars = 5

// Transform is an element of the hyperoctahedral group on n wires: first
// relabel (bit w of the input moves to bit Wires[w]), then invert the
// wires set in Polarity. As a function on assignments,
//
//	T(x) = scatter(x, Wires) ^ Polarity.
type Transform struct {
	// Wires is the relabeling: wire w is renamed to Wires[w]. It must be
	// a permutation of 0..n-1.
	Wires []int
	// Polarity has bit v set when output wire v is inverted after the
	// relabeling.
	Polarity uint32
}

// identity returns the identity transform on n wires.
func identity(n int) Transform {
	w := make([]int, n)
	for i := range w {
		w[i] = i
	}
	return Transform{Wires: w}
}

// N returns the number of wires the transform acts on.
func (t Transform) N() int { return len(t.Wires) }

// Validate checks that Wires is a permutation and Polarity fits in n bits.
func (t Transform) Validate() error {
	n := len(t.Wires)
	if n < 1 || n > 32 {
		return fmt.Errorf("canon: transform on %d wires", n)
	}
	seen := make([]bool, n)
	for _, w := range t.Wires {
		if w < 0 || w >= n || seen[w] {
			return fmt.Errorf("canon: wire map %v is not a permutation of %d wires", t.Wires, n)
		}
		seen[w] = true
	}
	if n < 32 && t.Polarity>>uint(n) != 0 {
		return fmt.Errorf("canon: polarity %#x exceeds %d wires", t.Polarity, n)
	}
	return nil
}

// IsIdentity reports whether the transform maps every assignment to itself.
func (t Transform) IsIdentity() bool {
	if t.Polarity != 0 {
		return false
	}
	for w, nw := range t.Wires {
		if w != nw {
			return false
		}
	}
	return true
}

// scatter moves bit w of x to bit m[w] for every wire.
func scatter(x uint32, m []int) uint32 {
	var out uint32
	for w, nw := range m {
		out |= (x >> uint(w) & 1) << uint(nw)
	}
	return out
}

// Apply evaluates the transform on one assignment.
func (t Transform) Apply(x uint32) uint32 {
	return scatter(x, t.Wires) ^ t.Polarity
}

// Compose returns the transform "t after u": Compose(x) = t(u(x)).
func (t Transform) Compose(u Transform) Transform {
	if len(t.Wires) != len(u.Wires) {
		panic("canon: Compose size mismatch")
	}
	w := make([]int, len(t.Wires))
	for i := range w {
		w[i] = t.Wires[u.Wires[i]]
	}
	return Transform{Wires: w, Polarity: scatter(u.Polarity, t.Wires) ^ t.Polarity}
}

// Inverse returns the transform undoing t.
func (t Transform) Inverse() Transform {
	w := make([]int, len(t.Wires))
	for i, nw := range t.Wires {
		w[nw] = i
	}
	return Transform{Wires: w, Polarity: scatter(t.Polarity, w)}
}

// Conjugate returns T∘p∘T⁻¹, the permutation of the same function seen
// through relabeled and re-polarized wires. p must have exactly 2^n rows
// for the transform's n.
func (t Transform) Conjugate(p perm.Perm) perm.Perm {
	if len(p) != 1<<uint(len(t.Wires)) {
		panic(fmt.Sprintf("canon: Conjugate: %d-entry permutation under %d-wire transform", len(p), len(t.Wires)))
	}
	q := make(perm.Perm, len(p))
	for x, y := range p {
		q[t.Apply(uint32(x))] = t.Apply(y)
	}
	return q
}

// ConjugateCircuit builds a cascade realizing T∘f∘T⁻¹ from a cascade c
// realizing f: a NOT layer for the polarity bits, the gates of c with
// wires renamed through the relabeling, and the NOT layer again. The
// result has at most len(c.Gates) + 2·popcount(Polarity) gates; for the
// identity transform it is a fresh gate-for-gate copy of c.
func (t Transform) ConjugateCircuit(c *circuit.Circuit) (*circuit.Circuit, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(t.Wires) != c.Wires {
		return nil, fmt.Errorf("canon: %d-wire transform applied to %d-wire circuit", len(t.Wires), c.Wires)
	}
	out := circuit.New(c.Wires)
	appendNots := func() {
		for w := 0; w < c.Wires; w++ {
			if t.Polarity>>uint(w)&1 != 0 {
				out.Append(circuit.Gate{Target: w})
			}
		}
	}
	appendNots()
	for _, g := range c.Gates {
		out.Append(circuit.Gate{
			Target:   t.Wires[g.Target],
			Controls: bits.Mask(scatter(uint32(g.Controls), t.Wires)),
		})
	}
	appendNots()
	return out, nil
}

// String renders the transform compactly, e.g. "[2 0 1]^5".
func (t Transform) String() string {
	return fmt.Sprintf("%v^%d", t.Wires, t.Polarity)
}

// Canonicalize maps p to its canonical class representative rep and a
// transform t with rep = t∘p∘t⁻¹. For n ≤ ExactVars, rep is the exact
// lexicographic minimum of the conjugation orbit, so every member of a
// class gets the same rep, and t is the first transform reaching it in
// orbitMin's enumeration order. Above that, rep is a copy of p and t is
// the identity. The input must be a valid permutation on 1..32 variables.
func Canonicalize(p perm.Perm) (perm.Perm, Transform, error) {
	n := p.Vars()
	if n < 1 || n > 32 {
		return nil, Transform{}, fmt.Errorf("canon: %d-entry table is not a permutation on 1..32 variables", len(p))
	}
	if err := p.Validate(); err != nil {
		return nil, Transform{}, err
	}
	if n > ExactVars {
		return append(perm.Perm(nil), p...), identity(n), nil
	}
	rep, t := orbitMin(p, n)
	return rep, t, nil
}

// orbitMin scans all n!·2^n conjugates, wire maps in lexicographic order
// and polarities ascending within each, and keeps the first smallest. For
// each wire map it tabulates sc[z] = scatter(z, wires) and si, the scatter
// through the inverse map, so conjugate row y under polarity pol is
//
//	q[y] = sc[p[si[y^pol]]] ^ pol
//
// and a conjugate is abandoned at its first row above the best so far.
func orbitMin(p perm.Perm, n int) (perm.Perm, Transform) {
	best := append(perm.Perm(nil), p...)
	cur := make(perm.Perm, len(p))
	bestT := identity(n)
	wires := identity(n).Wires
	var inv [ExactVars]int
	var sc, si [1 << ExactVars]uint32
	for {
		for w, nw := range wires {
			inv[nw] = w
		}
		for w := range wires {
			hi := 1 << uint(w)
			for z := 0; z < hi; z++ {
				sc[hi|z] = sc[z] | 1<<uint(wires[w])
				si[hi|z] = si[z] | 1<<uint(inv[w])
			}
		}
		for pol := uint32(0); pol < uint32(len(p)); pol++ {
			less := false
			for y := range cur {
				v := sc[p[si[uint32(y)^pol]]] ^ pol
				if !less {
					if v > best[y] {
						break
					}
					less = v < best[y]
				}
				cur[y] = v
			}
			if less {
				best, cur = cur, best
				copy(bestT.Wires, wires)
				bestT.Polarity = pol
			}
		}
		if !nextPermutation(wires) {
			break
		}
	}
	return best, bestT
}

// nextPermutation advances w to the next permutation in lexicographic
// order, returning false (and leaving w sorted ascending) after the last.
func nextPermutation(w []int) bool {
	i := len(w) - 2
	for i >= 0 && w[i] >= w[i+1] {
		i--
	}
	if i < 0 {
		sort.Ints(w)
		return false
	}
	j := len(w) - 1
	for w[j] <= w[i] {
		j--
	}
	w[i], w[j] = w[j], w[i]
	for l, r := i+1, len(w)-1; l < r; l, r = l+1, r-1 {
		w[l], w[r] = w[r], w[l]
	}
	return true
}

// Hash returns a 64-bit FNV-1a hash of a canonical representative — the
// class identifier the answer cache keys on. Collisions are possible in
// principle, which is why cache entries store the representative itself
// and compare it on lookup; the hash only names the bucket.
func Hash(rep perm.Perm) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	n := rep.Vars()
	mix(byte(n))
	for _, v := range rep {
		mix(byte(v))
		mix(byte(v >> 8))
		mix(byte(v >> 16))
		mix(byte(v >> 24))
	}
	return h
}
