// Package tt models (possibly irreversible) multi-output truth tables and
// implements the paper's conversion of an irreversible function into a
// reversible specification (Section II-A): if the most frequent output
// vector occurs p times, ⌈log2 p⌉ garbage outputs are appended to make the
// input→output mapping unique, and constant garbage inputs are added to
// balance the input and output counts.
package tt

import (
	"fmt"
	"math/bits"
)

// Table is a completely specified Boolean function with Inputs input
// variables and Outputs output variables. Rows[x] holds the output vector
// for input assignment x; input variable 0 is the least significant bit of
// x and output variable 0 the least significant bit of Rows[x].
type Table struct {
	Inputs  int
	Outputs int
	Rows    []uint32
}

// New returns an all-zero table of the given shape.
func New(inputs, outputs int) *Table {
	return &Table{Inputs: inputs, Outputs: outputs, Rows: make([]uint32, 1<<uint(inputs))}
}

// FromFunc builds a table by evaluating f on every input assignment.
func FromFunc(inputs, outputs int, f func(x uint32) uint32) *Table {
	t := New(inputs, outputs)
	for x := range t.Rows {
		t.Rows[x] = f(uint32(x)) & (1<<uint(outputs) - 1)
	}
	return t
}

// Validate checks structural consistency.
func (t *Table) Validate() error {
	if t.Inputs < 0 || t.Inputs > 30 || t.Outputs < 1 || t.Outputs > 30 {
		return fmt.Errorf("tt: unsupported shape %d→%d", t.Inputs, t.Outputs)
	}
	if len(t.Rows) != 1<<uint(t.Inputs) {
		return fmt.Errorf("tt: %d rows for %d inputs", len(t.Rows), t.Inputs)
	}
	for x, y := range t.Rows {
		if y >= 1<<uint(t.Outputs) {
			return fmt.Errorf("tt: row %d output %d out of range", x, y)
		}
	}
	return nil
}

// MaxMultiplicity returns p, the number of occurrences of the most frequent
// output vector. p == 1 iff the function is injective.
func (t *Table) MaxMultiplicity() int {
	counts := make(map[uint32]int, len(t.Rows))
	p := 0
	for _, y := range t.Rows {
		counts[y]++
		if counts[y] > p {
			p = counts[y]
		}
	}
	return p
}

// OnesCount is a convenience for weight-based benchmark functions.
func OnesCount(x uint32) int { return bits.OnesCount32(x) }
