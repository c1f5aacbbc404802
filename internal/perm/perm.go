// Package perm models reversible Boolean functions as permutations on the
// set {0, 1, …, 2^n − 1}, the representation used throughout Section II-A of
// the paper. A reversible function of n variables maps each n-bit input
// assignment to a unique n-bit output assignment, so its truth table is
// exactly a permutation of the 2^n integers.
//
// Input assignments are encoded with variable 0 ("a") as the least
// significant bit, matching the paper's figures where the rightmost truth
// table column is "a".
package perm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Perm is a reversible function of Vars() variables stored as the output
// value for every input value: p[x] is the image of input assignment x.
type Perm []uint32

// Identity returns the identity permutation on n variables.
func Identity(n int) Perm {
	p := make(Perm, 1<<uint(n))
	for i := range p {
		p[i] = uint32(i)
	}
	return p
}

// New builds a Perm from the listed output values and validates it.
func New(values []uint32) (Perm, error) {
	p := Perm(append([]uint32(nil), values...))
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// fromInts builds a Perm from int output values (convenient for literal
// specifications quoted from the paper) and validates it.
func fromInts(values []int) (Perm, error) {
	u := make([]uint32, len(values))
	for i, v := range values {
		if v < 0 {
			return nil, fmt.Errorf("perm: negative output value %d at row %d", v, i)
		}
		u[i] = uint32(v)
	}
	return New(u)
}

// MustFromInts is fromInts that panics on error; for fixed specifications
// quoted from the paper.
func MustFromInts(values []int) Perm {
	p, err := fromInts(values)
	if err != nil {
		panic(err)
	}
	return p
}

// Vars returns the number of variables n, where len(p) == 2^n. It returns
// -1 if the length is not a power of two.
func (p Perm) Vars() int {
	n := 0
	for size := 1; size < len(p); size <<= 1 {
		n++
	}
	if 1<<uint(n) != len(p) {
		return -1
	}
	return n
}

// Validate checks that p is a permutation of {0, …, len(p)−1} and that its
// size is a power of two.
func (p Perm) Validate() error {
	n := p.Vars()
	if n < 0 {
		return fmt.Errorf("perm: size %d is not a power of two", len(p))
	}
	seen := make([]bool, len(p))
	for i, v := range p {
		if int(v) >= len(p) {
			return fmt.Errorf("perm: output %d at row %d out of range [0,%d)", v, i, len(p))
		}
		if seen[v] {
			return fmt.Errorf("perm: output %d repeated (function is not reversible)", v)
		}
		seen[v] = true
	}
	return nil
}

// IsIdentity reports whether p maps every input to itself.
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if uint32(i) != v {
			return false
		}
	}
	return true
}

// Inverse returns the inverse permutation.
func (p Perm) Inverse() Perm {
	inv := make(Perm, len(p))
	for i, v := range p {
		inv[v] = uint32(i)
	}
	return inv
}

// Compose returns the permutation "q after p": result[x] = q[p[x]].
// Both permutations must have the same size.
func (p Perm) Compose(q Perm) Perm {
	if len(p) != len(q) {
		panic("perm: Compose size mismatch")
	}
	out := make(Perm, len(p))
	for i, v := range p {
		out[i] = q[v]
	}
	return out
}

// Equal reports whether p and q are the same function.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Random returns a uniformly random permutation on n variables drawn from
// src, i.e. a uniformly random reversible function (the workload of Tables
// II and III).
func Random(n int, src *rng.Source) Perm {
	size := 1 << uint(n)
	p := make(Perm, size)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := size - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// String renders the permutation in the paper's specification style:
// "{1, 0, 7, 2, 3, 4, 5, 6}".
func (p Perm) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Itoa(int(v)))
	}
	b.WriteByte('}')
	return b.String()
}

// Parse parses a specification in the String format (braces optional,
// comma- or space-separated) and validates it.
func Parse(s string) (Perm, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "{")
	s = strings.TrimSuffix(s, "}")
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' || r == '\n' })
	vals := make([]int, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("perm: bad value %q: %v", f, err)
		}
		vals = append(vals, v)
	}
	return fromInts(vals)
}
