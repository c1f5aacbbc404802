package perm

import (
	"testing"

	"repro/internal/rng"
)

func TestIdentity(t *testing.T) {
	p := Identity(3)
	if !p.IsIdentity() || p.Vars() != 3 || p.Validate() != nil {
		t.Errorf("Identity(3) broken: %v", p)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		vals []int
	}{
		{"repeat", []int{0, 0, 2, 3}},
		{"out of range", []int{0, 1, 2, 4}},
		{"not power of two", []int{0, 1, 2}},
	}
	for _, c := range cases {
		if _, err := fromInts(c.vals); err == nil {
			t.Errorf("%s: fromInts(%v) should fail", c.name, c.vals)
		}
	}
	if _, err := fromInts([]int{1, 0, -1, 2}); err == nil {
		t.Error("negative value should fail")
	}
}

func TestInverseComposeIdentity(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		p := Random(4, src)
		if !p.Compose(p.Inverse()).IsIdentity() {
			t.Fatalf("p∘p⁻¹ ≠ id for %s", p)
		}
		if !p.Inverse().Compose(p).IsIdentity() {
			t.Fatalf("p⁻¹∘p ≠ id for %s", p)
		}
	}
}

func TestComposeOrder(t *testing.T) {
	// p = NOT on bit 0; q = values +2 mod 4 (on 2 vars): check q after p.
	p := MustFromInts([]int{1, 0, 3, 2})
	q := MustFromInts([]int{2, 3, 0, 1})
	pq := p.Compose(q) // q[p[x]]
	for x := range pq {
		if pq[x] != q[p[x]] {
			t.Fatalf("Compose semantics wrong at %d", x)
		}
	}
}

func TestFig1Specification(t *testing.T) {
	// The paper's Fig. 1 truth table as a permutation.
	p := MustFromInts([]int{1, 0, 7, 2, 3, 4, 5, 6})
	// Row cba=010 (x=2) maps to 111 (7) per the figure.
	if p[2] != 7 {
		t.Errorf("p[2] = %d, want 7", p[2])
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	src := rng.New(9)
	for trial := 0; trial < 20; trial++ {
		p := Random(3, src)
		q, err := Parse(p.String())
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(q) {
			t.Fatalf("round trip %s → %s", p, q)
		}
	}
	if _, err := Parse("{0, 1, x}"); err == nil {
		t.Error("bad token should fail")
	}
}

func TestRandomIsUniformish(t *testing.T) {
	// First-image distribution check: P(p[0]=k) = 1/8.
	src := rng.New(1234)
	var counts [8]int
	const draws = 16000
	for i := 0; i < draws; i++ {
		counts[Random(3, src)[0]]++
	}
	want := draws / 8
	for k, c := range counts {
		if c < want*85/100 || c > want*115/100 {
			t.Errorf("P(p[0]=%d): %d draws, want ≈%d", k, c, want)
		}
	}
}

func TestVarsReturnsMinusOneOnBadSize(t *testing.T) {
	if (Perm{0, 1, 2}).Vars() != -1 {
		t.Error("Vars on non-power-of-two should be -1")
	}
}
