package spectral

import (
	"testing"

	"repro/internal/perm"
	"repro/internal/rng"
)

// wht is the in-place Walsh–Hadamard transform of a ±1-encoded column:
// out[w] = Σ_x (−1)^{f(x)} (−1)^{w·x}. The length must be a power of two.
// It is the reference the spectral form of the measure is checked with.
func wht(col []int32) {
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

// spectrum is the Walsh–Hadamard spectrum of output bit out of p, in ±1
// encoding (f = 0 ↦ +1, f = 1 ↦ −1).
func spectrum(p perm.Perm, out int) []int32 {
	col := make([]int32, len(p))
	for x, y := range p {
		col[x] = 1 - 2*int32(y>>uint(out)&1)
	}
	wht(col)
	return col
}

func TestWHTParseval(t *testing.T) {
	// Σ Ŵ(w)² = 2^n · 2^n for any Boolean function (±1 encoding).
	src := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		n := 2 + src.Intn(4)
		size := 1 << uint(n)
		col := make([]int32, size)
		for i := range col {
			if src.Bool() {
				col[i] = 1
			} else {
				col[i] = -1
			}
		}
		wht(col)
		sum := int64(0)
		for _, v := range col {
			sum += int64(v) * int64(v)
		}
		if sum != int64(size)*int64(size) {
			t.Fatalf("Parseval violated: %d ≠ %d", sum, size*size)
		}
	}
}

func TestWHTConstant(t *testing.T) {
	// Constant +1 transforms to a delta at frequency 0.
	col := []int32{1, 1, 1, 1}
	wht(col)
	if col[0] != 4 || col[1] != 0 || col[2] != 0 || col[3] != 0 {
		t.Errorf("wht(const) = %v", col)
	}
}

func TestWHTInvolutionUpToScale(t *testing.T) {
	src := rng.New(3)
	col := make([]int32, 16)
	for i := range col {
		col[i] = int32(src.Intn(7)) - 3
	}
	orig := append([]int32(nil), col...)
	wht(col)
	wht(col)
	for i := range col {
		if col[i] != orig[i]*16 {
			t.Fatalf("wht² ≠ 2^n·id at %d", i)
		}
	}
}

func TestComplexityIdentityZero(t *testing.T) {
	for n := 1; n <= 5; n++ {
		p := perm.Identity(n)
		if m := measureOf(p); m != (measure{prefix: len(p)}) {
			t.Errorf("identity measure at n=%d is %+v, want a full prefix and no error", n, m)
		}
	}
}

// TestComplexityMatchesSpectral pins the package comment's identity on the
// measure Synthesize ranks by: the total Hamming error of measureOf is
// M(f) = Σ_i (2^n − Ŵ_{f_i}(e_i))/2.
func TestComplexityMatchesSpectral(t *testing.T) {
	src := rng.New(4)
	for trial := 0; trial < 30; trial++ {
		p := perm.Random(2+src.Intn(4), src)
		spectral := 0
		for i := 0; i < p.Vars(); i++ {
			spectral += (len(p) - int(spectrum(p, i)[1<<uint(i)])) / 2
		}
		if got := measureOf(p).totalHam; got != spectral {
			t.Fatalf("measureOf(%s).totalHam = %d, spectral form gives %d", p, got, spectral)
		}
	}
}

func TestComplexityNOT(t *testing.T) {
	// NOT on wire 0 of 2 wires: output bit 0 differs on all 4 rows.
	p := perm.MustFromInts([]int{1, 0, 3, 2})
	if got := measureOf(p).totalHam; got != 4 {
		t.Errorf("measureOf(NOT).totalHam = %d, want 4", got)
	}
}

func TestSynthesizeSmallFunctions(t *testing.T) {
	src := rng.New(6)
	found := 0
	for trial := 0; trial < 40; trial++ {
		p := perm.Random(3, src)
		res, err := Synthesize(p, 40)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			continue // greedy dead ends are expected (no backtracking)
		}
		found++
		if !res.Circuit.Perm().Equal(p) {
			t.Fatalf("trial %d: wrong circuit", trial)
		}
	}
	// The greedy method should still handle a decent share (the paper
	// says the method "holds promise").
	if found < 38 {
		t.Errorf("greedy spectral found only %d/40", found)
	}
}

func TestSynthesizeIdentity(t *testing.T) {
	res, err := Synthesize(perm.Identity(3), 10)
	if err != nil || !res.Found || res.Circuit.Len() != 0 {
		t.Errorf("identity: %+v, %v", res, err)
	}
}

func TestSynthesizeRejectsInvalid(t *testing.T) {
	if _, err := Synthesize(perm.Perm{0, 0}, 5); err == nil {
		t.Error("invalid permutation should error")
	}
}

func TestSynthesizeLinearFunctions(t *testing.T) {
	// Gray-code-style linear functions are easy for the greedy method.
	size := 16
	p := make(perm.Perm, size)
	for x := 0; x < size; x++ {
		p[x] = uint32(x) ^ uint32(x)>>1
	}
	res, err := Synthesize(p, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("greedy failed on the Gray-code converter")
	}
	if !res.Circuit.Perm().Equal(p) {
		t.Fatal("wrong circuit")
	}
}
