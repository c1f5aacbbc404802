// Package optimal computes provably minimal gate counts for all reversible
// functions of three variables, reproducing the "Optimal [16]" columns of
// the paper's Table I (Shende, Prasad, Markov, Hayes, IEEE TCAD 2003).
//
// Shende et al. obtain optimal circuits by iterative deepening; for n = 3
// the whole symmetric group S_8 has only 8! = 40 320 elements, so a single
// breadth-first search from the identity over the gate library reaches
// every function at its minimal distance. Gate libraries are closed under
// inverses (every NOT/CNOT/Toffoli/SWAP gate is self-inverse), so distance
// from the identity equals distance to the identity and the BFS yields the
// minimal synthesis cost for every function simultaneously.
package optimal

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/perm"
)

// Library selects the gate set for the exhaustive search.
type Library int

const (
	// NCT is NOT + CNOT + 3-bit Toffoli.
	NCT Library = iota
	// NCTS adds the SWAP gate (unconditional exchange of two wires).
	NCTS
)

func (l Library) String() string {
	if l == NCTS {
		return "NCTS"
	}
	return "NCT"
}

// generator is one gate together with its action table on all 2^n values.
type generator struct {
	gate   circuit.Gate // meaningful for Toffoli-family generators
	swapA  int          // for SWAP generators: the two wires exchanged
	swapB  int
	isSwap bool
	table  []uint32
}

// generators returns the gate set for n wires: all NOTs, all CNOTs, all
// 3-bit Toffoli gates (every choice of 2 controls and a target), plus all
// SWAPs for NCTS.
func generators(n int, lib Library) []generator {
	var gens []generator
	add := func(g generator) {
		g.table = make([]uint32, 1<<uint(n))
		for x := range g.table {
			g.table[x] = g.apply(uint32(x))
		}
		gens = append(gens, g)
	}
	for t := 0; t < n; t++ {
		add(generator{gate: circuit.NewGate(t)})
		for c := 0; c < n; c++ {
			if c == t {
				continue
			}
			add(generator{gate: circuit.NewGate(t, c)})
			for c2 := c + 1; c2 < n; c2++ {
				if c2 == t {
					continue
				}
				add(generator{gate: circuit.NewGate(t, c, c2)})
			}
		}
	}
	if lib == NCTS {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				add(generator{isSwap: true, swapA: a, swapB: b})
			}
		}
	}
	return gens
}

func (g *generator) apply(x uint32) uint32 {
	if !g.isSwap {
		return g.gate.Apply(x)
	}
	ba := x >> uint(g.swapA) & 1
	bb := x >> uint(g.swapB) & 1
	if ba != bb {
		x ^= 1<<uint(g.swapA) | 1<<uint(g.swapB)
	}
	return x
}

// encode packs a 3-variable permutation into 24 bits (3 bits per image).
func encode(p perm.Perm) uint32 {
	var code uint32
	for i, v := range p {
		code |= v << uint(3*i)
	}
	return code
}

// Distances computes the minimal gate count for every 3-variable reversible
// function over the chosen library. The returned map is keyed by the packed
// encoding of the permutation; use Lookup to query it.
func Distances(lib Library) *Table {
	const n = 3
	gens := generators(n, lib)
	dist := make(map[uint32]uint8, 40320)
	id := perm.Identity(n)
	frontier := []perm.Perm{id}
	dist[encode(id)] = 0
	for depth := uint8(1); len(frontier) > 0; depth++ {
		var next []perm.Perm
		for _, p := range frontier {
			for gi := range gens {
				g := &gens[gi]
				// Compose the generator at the output side; since the
				// generator set is symmetric this explores the whole
				// Cayley graph.
				q := make(perm.Perm, len(p))
				for x, v := range p {
					q[x] = g.table[v]
				}
				code := encode(q)
				if _, seen := dist[code]; !seen {
					dist[code] = depth
					next = append(next, q)
				}
			}
		}
		frontier = next
	}
	return &Table{lib: lib, dist: dist}
}

// Table holds the minimal gate counts of every 3-variable reversible
// function for one library.
type Table struct {
	lib  Library
	dist map[uint32]uint8
}

// Lookup returns the optimal gate count for p.
func (t *Table) Lookup(p perm.Perm) (int, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("optimal: table covers 3-variable functions, got %d rows", len(p))
	}
	d, ok := t.dist[encode(p)]
	if !ok {
		return 0, fmt.Errorf("optimal: %s not reachable (invalid permutation?)", p)
	}
	return int(d), nil
}

// Circuit reconstructs a provably minimal cascade for p by walking the
// distance table: from p, repeatedly apply the generator that reduces the
// distance until the identity is reached. Only available for Toffoli-family
// libraries (NCT); SWAP gates have no single-gate cascade representation.
func (t *Table) Circuit(p perm.Perm) (*circuit.Circuit, error) {
	if t.lib != NCT {
		return nil, fmt.Errorf("optimal: circuit reconstruction requires the NCT table")
	}
	d, err := t.Lookup(p)
	if err != nil {
		return nil, err
	}
	gens := generators(3, t.lib)
	cur := append(perm.Perm(nil), p...)
	// Walking p → id collects generators outermost-first (each applied at
	// the output side), so the input→output cascade is the reverse.
	outer := make([]circuit.Gate, 0, d)
	for depth := d; depth > 0; depth-- {
		found := false
		for gi := range gens {
			g := &gens[gi]
			q := make(perm.Perm, len(cur))
			for x, v := range cur {
				q[x] = g.table[v]
			}
			if dq, err := t.Lookup(q); err == nil && dq == depth-1 {
				outer = append(outer, g.gate)
				cur = q
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("optimal: reconstruction stuck at distance %d", depth)
		}
	}
	c := circuit.New(3)
	for i := len(outer) - 1; i >= 0; i-- {
		c.Append(outer[i])
	}
	return c, nil
}

// Histogram returns the number of functions at each optimal gate count,
// indexed by gate count, plus the average — the "Optimal [16]" column of
// Table I.
func (t *Table) Histogram() (counts []int, average float64) {
	maxDepth := 0
	for _, d := range t.dist {
		if int(d) > maxDepth {
			maxDepth = int(d)
		}
	}
	counts = make([]int, maxDepth+1)
	total := 0
	for _, d := range t.dist {
		counts[d]++
		total += int(d)
	}
	average = float64(total) / float64(len(t.dist))
	return counts, average
}

// Size returns how many functions the table covers (40 320 when complete).
func (t *Table) Size() int { return len(t.dist) }
