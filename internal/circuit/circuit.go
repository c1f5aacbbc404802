// Package circuit models cascades of generalized Toffoli gates, the target
// technology of the synthesis algorithm (Section II-B of the paper).
//
// An n-bit Toffoli gate TOFn(x1, …, xn−1, xn) passes its first n−1 inputs
// (the control bits) unchanged and inverts the nth input (the target bit)
// iff all controls are 1. TOF1 is the NOT gate and TOF2 the CNOT/Feynman
// gate. A reversible circuit is a cascade of such gates with no fanout and
// no feedback, so the model is simply an ordered gate list.
package circuit

import (
	"fmt"
	"strings"

	"repro/internal/bits"
	"repro/internal/perm"
	"repro/internal/rng"
)

// Gate is a single generalized Toffoli gate: Target is the wire index whose
// value is inverted when every wire in Controls is 1. An empty Controls set
// makes the gate a NOT; a single control makes it a CNOT.
type Gate struct {
	Target   int
	Controls bits.Mask
}

// NewGate builds a gate from a target wire and a list of control wires.
// It panics if the target is listed as a control, which the gate definition
// forbids (a wire cannot be both target and control).
func NewGate(target int, controls ...int) Gate {
	var m bits.Mask
	for _, c := range controls {
		if c == target {
			panic(fmt.Sprintf("circuit: wire %d is both target and control", target))
		}
		m |= bits.Bit(c)
	}
	return Gate{Target: target, Controls: m}
}

// Size returns the gate's bit width: controls + 1 (so NOT is 1, CNOT is 2,
// the classic Toffoli is 3).
func (g Gate) Size() int { return bits.Count(g.Controls) + 1 }

// Valid reports whether the gate fits on n wires and its target is not
// among its controls.
func (g Gate) Valid(n int) bool {
	if g.Target < 0 || g.Target >= n {
		return false
	}
	if bits.Has(g.Controls, g.Target) {
		return false
	}
	return g.Controls < 1<<uint(n)
}

// Apply returns the gate's effect on an input assignment x.
func (g Gate) Apply(x uint32) uint32 {
	if x&g.Controls == g.Controls {
		return x ^ bits.Bit(g.Target)
	}
	return x
}

// String renders the gate in the paper's notation, e.g. "TOF3(c,a,b)" for a
// gate controlled by wires c and a with target b. Controls are listed in
// descending wire order, matching the paper's examples, and the target is
// always last.
func (g Gate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TOF%d(", g.Size())
	vars := bits.Vars(g.Controls)
	for i := len(vars) - 1; i >= 0; i-- {
		b.WriteString(bits.VarName(vars[i]))
		b.WriteByte(',')
	}
	b.WriteString(bits.VarName(g.Target))
	b.WriteByte(')')
	return b.String()
}

// Circuit is a cascade of Toffoli gates on Wires wires, applied in slice
// order from circuit inputs to circuit outputs.
type Circuit struct {
	Wires int
	Gates []Gate
}

// New returns an empty circuit on n wires.
func New(n int) *Circuit { return &Circuit{Wires: n} }

// Append adds gates at the output end of the cascade.
func (c *Circuit) Append(gates ...Gate) { c.Gates = append(c.Gates, gates...) }

// Len returns the gate count, the paper's primary cost metric.
func (c *Circuit) Len() int { return len(c.Gates) }

// Validate checks every gate against the circuit width.
func (c *Circuit) Validate() error {
	if c.Wires < 1 || c.Wires > bits.MaxVars {
		return fmt.Errorf("circuit: invalid wire count %d", c.Wires)
	}
	for i, g := range c.Gates {
		if !g.Valid(c.Wires) {
			return fmt.Errorf("circuit: gate %d (%s) invalid on %d wires", i, g, c.Wires)
		}
	}
	return nil
}

// Apply runs the cascade on a single input assignment.
func (c *Circuit) Apply(x uint32) uint32 {
	for _, g := range c.Gates {
		x = g.Apply(x)
	}
	return x
}

// Perm simulates the circuit on every input assignment and returns the
// reversible function it realizes.
func (c *Circuit) Perm() perm.Perm {
	p := make(perm.Perm, 1<<uint(c.Wires))
	for x := range p {
		p[x] = c.Apply(uint32(x))
	}
	return p
}

// Inverse returns the circuit computing the inverse function: the gates in
// reverse order (every Toffoli gate is self-inverse).
func (c *Circuit) Inverse() *Circuit {
	inv := New(c.Wires)
	inv.Gates = make([]Gate, len(c.Gates))
	for i, g := range c.Gates {
		inv.Gates[len(c.Gates)-1-i] = g
	}
	return inv
}

// MaxGateSize returns the size of the largest gate, or 0 for an empty
// circuit.
func (c *Circuit) MaxGateSize() int {
	max := 0
	for _, g := range c.Gates {
		if s := g.Size(); s > max {
			max = s
		}
	}
	return max
}

// NCTOnly reports whether every gate is in the NCT library (NOT, CNOT,
// 3-bit Toffoli). Table I and the benchmarks marked † in Table IV are
// compared under this restricted library.
func (c *Circuit) NCTOnly() bool { return c.MaxGateSize() <= 3 }

// String renders the cascade in the paper's style:
// "TOF3(c,a,b) TOF3(c,b,a) TOF1(a)". The empty circuit renders as
// "(identity)".
func (c *Circuit) String() string {
	if len(c.Gates) == 0 {
		return "(identity)"
	}
	parts := make([]string, len(c.Gates))
	for i, g := range c.Gates {
		parts[i] = g.String()
	}
	return strings.Join(parts, " ")
}

// Parse parses a cascade in the String format on n wires.
func Parse(n int, s string) (*Circuit, error) {
	c := New(n)
	for _, tok := range strings.Fields(s) {
		g, err := parseGate(tok)
		if err != nil {
			return nil, err
		}
		if !g.Valid(n) {
			return nil, fmt.Errorf("circuit: gate %q does not fit on %d wires", tok, n)
		}
		c.Append(g)
	}
	return c, nil
}

func parseGate(tok string) (Gate, error) {
	open := strings.IndexByte(tok, '(')
	if !strings.HasPrefix(tok, "TOF") || open < 0 || !strings.HasSuffix(tok, ")") {
		return Gate{}, fmt.Errorf("circuit: bad gate token %q", tok)
	}
	args := strings.Split(tok[open+1:len(tok)-1], ",")
	if len(args) == 0 {
		return Gate{}, fmt.Errorf("circuit: gate %q has no wires", tok)
	}
	var g Gate
	for i, a := range args {
		v := bits.VarIndex(strings.TrimSpace(a))
		if v < 0 {
			return Gate{}, fmt.Errorf("circuit: bad wire name %q in %q", a, tok)
		}
		if i == len(args)-1 {
			g.Target = v
		} else {
			g.Controls |= bits.Bit(v)
		}
	}
	if bits.Has(g.Controls, g.Target) {
		return Gate{}, fmt.Errorf("circuit: target repeated as control in %q", tok)
	}
	return g, nil
}

// Random returns a circuit of exactly `gates` gates drawn from src, built
// the way the scalability experiments (Tables V–VII) construct their
// workloads: each gate picks a uniform target; under the GT library the
// number of controls is uniform in [0, n−1] and the control set is a
// uniform subset of that size; under NCT the gate is a uniform NOT, CNOT,
// or TOF3.
func Random(n, gates int, library Library, src *rng.Source) *Circuit {
	c := New(n)
	for i := 0; i < gates; i++ {
		target := src.Intn(n)
		var controls int
		switch library {
		case NCT:
			controls = src.Intn(min(3, n))
		default:
			controls = src.Intn(n)
		}
		var m bits.Mask
		avail := make([]int, 0, n-1)
		for w := 0; w < n; w++ {
			if w != target {
				avail = append(avail, w)
			}
		}
		for j := 0; j < controls; j++ {
			k := src.Intn(len(avail))
			m |= bits.Bit(avail[k])
			avail[k] = avail[len(avail)-1]
			avail = avail[:len(avail)-1]
		}
		c.Append(Gate{Target: target, Controls: m})
	}
	return c
}

// Library identifies a reversible gate library.
type Library int

const (
	// GT is the generalized Toffoli library: TOFn for every n, the
	// library the synthesis algorithm targets.
	GT Library = iota
	// NCT restricts gates to NOT, CNOT and the 3-bit Toffoli.
	NCT
)

func (l Library) String() string {
	if l == NCT {
		return "NCT"
	}
	return "GT"
}
