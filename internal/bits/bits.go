// Package bits provides small helpers for manipulating product terms and
// variable sets represented as bit masks.
//
// Throughout the repository a product term (a conjunction of uncomplemented
// variables, as used in positive-polarity Reed–Muller expansions) is a
// uint32 mask: bit i set means variable i appears in the term. The constant
// term 1 is the empty mask. Wire/variable indices are 0-based; index 0 is
// conventionally printed as "a", 1 as "b", and so on.
package bits

import (
	mathbits "math/bits"
	"strconv"
	"strings"
)

// MaxVars is the largest number of variables supported by the mask
// representation.
const MaxVars = 32

// Mask is a set of variables (equivalently, a positive-polarity product
// term). The zero Mask is the constant term 1 (empty variable set).
type Mask = uint32

// Bit returns the mask with only variable i set.
func Bit(i int) Mask { return 1 << uint(i) }

// Has reports whether variable i is in m.
func Has(m Mask, i int) bool { return m&Bit(i) != 0 }

// Count returns the number of variables in m (the literal count of the term).
func Count(m Mask) int { return mathbits.OnesCount32(m) }

// Vars returns the variable indices in m in ascending order.
func Vars(m Mask) []int {
	out := make([]int, 0, Count(m))
	for m != 0 {
		i := mathbits.TrailingZeros32(m)
		out = append(out, i)
		m &^= 1 << uint(i)
	}
	return out
}

// VarName returns the conventional name for variable i: "a"–"z" for the
// first 26 and "x26", "x27", … beyond that.
func VarName(i int) string {
	if i >= 0 && i < 26 {
		return string(rune('a' + i))
	}
	return "x" + strconv.Itoa(i)
}

// VarIndex parses a name produced by VarName, returning -1 if it is not a
// valid variable name.
func VarIndex(s string) int {
	if len(s) == 1 && s[0] >= 'a' && s[0] <= 'z' {
		return int(s[0] - 'a')
	}
	if strings.HasPrefix(s, "x") {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < MaxVars {
			return n
		}
	}
	return -1
}

// TermString formats the product term m, e.g. "abc" for variables 0,1,2.
// The empty term is formatted as "1".
func TermString(m Mask) string {
	if m == 0 {
		return "1"
	}
	var b strings.Builder
	for _, v := range Vars(m) {
		b.WriteString(VarName(v))
	}
	return b.String()
}

// ParseTerm parses a term in the format produced by TermString: a
// concatenation of single-letter variable names (or "1" for the constant
// term). It returns the mask and whether the parse succeeded.
func ParseTerm(s string) (Mask, bool) {
	if s == "1" {
		return 0, true
	}
	if s == "" {
		return 0, false
	}
	var m Mask
	for _, r := range s {
		if r < 'a' || r > 'z' {
			return 0, false
		}
		m |= Bit(int(r - 'a'))
	}
	return m, true
}
