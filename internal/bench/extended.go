package bench

// Extended benchmark families beyond Table IV. The paper notes that its
// tool could not synthesize some members of the ham#, hwb#, and #sym
// families "due to memory constraints"; these registrations make those
// families available so the reproduction can report where this
// implementation stands on them. Published reference results are not
// quoted (the paper shows none), so rows carry only our measurements.

import (
	"fmt"

	"repro/internal/tt"
)

// addExtended adds the extended families.
func addExtended(l *library) {
	// Larger hidden-weighted-bit functions (reversible as defined:
	// rotate the input left by its weight).
	for _, n := range []int{5, 6, 8} {
		b := fromPerm(fmt.Sprintf("hwb%d", n),
			"hidden weighted bit: input rotated left by its weight", hwb(n), n)
		l.add(b)
	}

	// Larger weight-counting functions (rd53's siblings from MCNC):
	// rd73 counts ones of 7 inputs into 3 bits; rd84 of 8 into 4.
	for _, rd := range []struct{ in, out int }{{7, 3}, {8, 4}} {
		b := fromTable(fmt.Sprintf("rd%d%d", rd.in, rd.out),
			fmt.Sprintf("%d-bit binary count of ones of %d inputs", rd.out, rd.in),
			tt.FromFunc(rd.in, rd.out, func(x uint32) uint32 {
				return uint32(tt.OnesCount(x)) & (1<<uint(rd.out) - 1)
			}))
		l.add(b)
	}

	// Symmetric threshold functions: Nsym outputs 1 iff the input weight
	// lies in the function's band (6sym: 2–4; 9sym: 3–6, the usual MCNC
	// definitions).
	sym := func(n, lo, hi int) *Benchmark {
		return fromTable(fmt.Sprintf("%dsym", n),
			fmt.Sprintf("1 iff the weight of %d inputs is in [%d,%d]", n, lo, hi),
			tt.FromFunc(n, 1, func(x uint32) uint32 {
				w := tt.OnesCount(x)
				if w >= lo && w <= hi {
					return 1
				}
				return 0
			}))
	}
	l.add(sym(6, 2, 4))
	l.add(sym(9, 3, 6))

	// nth_prime-style small arithmetic: the 4-bit modular multiplier
	// y = 3x mod 16 is reversible outright (3 is odd).
	mul3 := make([]int, 16)
	for x := 0; x < 16; x++ {
		mul3[x] = (3 * x) % 16
	}
	l.add(fromPerm("mul3mod16", "y = 3x mod 16 (odd-constant modular multiplier)", mul3, 4))

	// A long cycle: the (2^6)-cycle x ↦ x+1 mod 64, the 6-variable
	// relative of Examples 6 and 7.
	inc := make([]int, 64)
	for x := 0; x < 64; x++ {
		inc[x] = (x + 1) % 64
	}
	l.add(fromPerm("shiftleft6", "wraparound shift left by one (6 variables)", inc, 6))
}

// ExtendedFamilies returns the extra benchmarks in a stable order.
func ExtendedFamilies() []*Benchmark {
	names := []string{"hwb5", "hwb6", "hwb8", "rd73", "rd84", "6sym", "9sym",
		"mul3mod16", "shiftleft6"}
	out := make([]*Benchmark, len(names))
	for i, n := range names {
		b, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out[i] = b
	}
	return out
}
