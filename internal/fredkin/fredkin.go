// Package fredkin implements generalized Fredkin (controlled-swap) gates
// and their interchange with Toffoli cascades — the paper's first
// future-work item ("A Fredkin gate is equivalent to three Toffoli gates.
// Thus, the use of Fredkin gates could yield a significant improvement in
// circuit quality", Section VI).
//
// A generalized Fredkin gate FRE(C; a, b) swaps wires a and b when every
// wire in the control set C is 1. The classic 3-bit Fredkin gate has one
// control. The package provides the gate model, the exact three-Toffoli
// expansion, and a recognizer that rewrites a Toffoli cascade's
// swap-shaped triples into Fredkin gates, quantifying how much of the
// future-work gain is available on synthesized circuits.
package fredkin

import (
	"fmt"
	"strings"

	"repro/internal/bits"
	"repro/internal/circuit"
)

// Gate is a generalized Fredkin gate: wires A and B are exchanged when all
// wires in Controls are 1. A and B must differ and not appear in Controls.
type Gate struct {
	A, B     int
	Controls bits.Mask
}

// Apply computes the gate's action on one assignment.
func (g Gate) Apply(x uint32) uint32 {
	if x&g.Controls != g.Controls {
		return x
	}
	ba := x >> uint(g.A) & 1
	bb := x >> uint(g.B) & 1
	if ba != bb {
		x ^= bits.Bit(g.A) | bits.Bit(g.B)
	}
	return x
}

// Size returns the gate width: controls + 2.
func (g Gate) Size() int { return bits.Count(g.Controls) + 2 }

// String renders the gate as FRE<n>(controls; a, b), e.g. "FRE3(c;a,b)".
func (g Gate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FRE%d(", g.Size())
	vars := bits.Vars(g.Controls)
	for i := len(vars) - 1; i >= 0; i-- {
		b.WriteString(bits.VarName(vars[i]))
		if i > 0 {
			b.WriteByte(',')
		}
	}
	b.WriteByte(';')
	b.WriteString(bits.VarName(g.A))
	b.WriteByte(',')
	b.WriteString(bits.VarName(g.B))
	b.WriteByte(')')
	return b.String()
}

// ToToffoli returns the exact three-Toffoli expansion
// TOF(C∪{b}; a) TOF(C∪{a}; b) TOF(C∪{b}; a).
func (g Gate) ToToffoli() [3]circuit.Gate {
	t1 := circuit.Gate{Target: g.A, Controls: g.Controls | bits.Bit(g.B)}
	t2 := circuit.Gate{Target: g.B, Controls: g.Controls | bits.Bit(g.A)}
	return [3]circuit.Gate{t1, t2, t1}
}

// Element is one gate of a mixed Fredkin/Toffoli cascade.
type Element struct {
	Toffoli *circuit.Gate
	Fredkin *Gate
}

func (e Element) String() string {
	if e.Fredkin != nil {
		return e.Fredkin.String()
	}
	return e.Toffoli.String()
}

// Cascade is a mixed cascade on Wires wires.
type Cascade struct {
	Wires    int
	Elements []Element
}

// Apply runs the cascade on one assignment.
func (c *Cascade) Apply(x uint32) uint32 {
	for _, e := range c.Elements {
		if e.Fredkin != nil {
			x = e.Fredkin.Apply(x)
		} else {
			x = e.Toffoli.Apply(x)
		}
	}
	return x
}

// Len returns the mixed gate count.
func (c *Cascade) Len() int { return len(c.Elements) }

// FredkinCount returns how many elements are Fredkin gates.
func (c *Cascade) FredkinCount() int {
	n := 0
	for _, e := range c.Elements {
		if e.Fredkin != nil {
			n++
		}
	}
	return n
}

// ToToffoli expands every Fredkin gate, returning a plain Toffoli cascade.
func (c *Cascade) ToToffoli() *circuit.Circuit {
	out := circuit.New(c.Wires)
	for _, e := range c.Elements {
		if e.Fredkin != nil {
			g := e.Fredkin.ToToffoli()
			out.Append(g[0], g[1], g[2])
		} else {
			out.Append(*e.Toffoli)
		}
	}
	return out
}

// String renders the mixed cascade.
func (c *Cascade) String() string {
	if len(c.Elements) == 0 {
		return "(identity)"
	}
	parts := make([]string, len(c.Elements))
	for i, e := range c.Elements {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// Recognize rewrites swap-shaped Toffoli triples in a cascade into Fredkin
// gates: three consecutive gates T(C∪{b};a) T(C∪{a};b) T(C∪{b};a) become
// FRE(C; a, b). Each rewrite replaces three gates with one, the quality
// gain the paper's future-work section anticipates.
func Recognize(c *circuit.Circuit) *Cascade {
	out := &Cascade{Wires: c.Wires}
	gates := c.Gates
	for i := 0; i < len(gates); i++ {
		if i+2 < len(gates) {
			if f, ok := matchTriple(gates[i], gates[i+1], gates[i+2]); ok {
				out.Elements = append(out.Elements, Element{Fredkin: &f})
				i += 2
				continue
			}
		}
		g := gates[i]
		out.Elements = append(out.Elements, Element{Toffoli: &g})
	}
	return out
}

// matchTriple reports whether g1 g2 g3 is the canonical Fredkin expansion.
func matchTriple(g1, g2, g3 circuit.Gate) (Gate, bool) {
	if g1 != g3 {
		return Gate{}, false
	}
	a, b := g1.Target, g2.Target
	if a == b {
		return Gate{}, false
	}
	base1 := g1.Controls &^ bits.Bit(b)
	base2 := g2.Controls &^ bits.Bit(a)
	if base1 != base2 {
		return Gate{}, false
	}
	if !bits.Has(g1.Controls, b) || !bits.Has(g2.Controls, a) {
		return Gate{}, false
	}
	return Gate{A: a, B: b, Controls: base1}, true
}
