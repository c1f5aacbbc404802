package canon

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/rng"
)

func randomTransform(n int, src *rng.Source) Transform {
	w := identity(n).Wires
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		w[i], w[j] = w[j], w[i]
	}
	return Transform{Wires: w, Polarity: uint32(src.Intn(1 << uint(n)))}
}

func TestTransformGroupLaws(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(4)
		a, b := randomTransform(n, src), randomTransform(n, src)
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		inv := a.Inverse()
		if !a.Compose(inv).IsIdentity() || !inv.Compose(a).IsIdentity() {
			t.Fatalf("n=%d: %v does not invert to identity", n, a)
		}
		comp := a.Compose(b)
		for x := uint32(0); x < 1<<uint(n); x++ {
			if comp.Apply(x) != a.Apply(b.Apply(x)) {
				t.Fatalf("n=%d: (%v∘%v)(%d) mismatch", n, a, b, x)
			}
			if inv.Apply(a.Apply(x)) != x {
				t.Fatalf("n=%d: inverse of %v fails at %d", n, a, x)
			}
		}
	}
}

func TestConjugateAgreesOnPermAndCircuit(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 100; trial++ {
		n := 3 + src.Intn(3)
		c := circuit.Random(n, 1+src.Intn(12), circuit.GT, src)
		tr := randomTransform(n, src)
		conj, err := tr.ConjugateCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Conjugate(c.Perm())
		if !conj.Perm().Equal(want) {
			t.Fatalf("n=%d t=%v: ConjugateCircuit realizes %v, want %v", n, tr, conj.Perm(), want)
		}
		if tr.IsIdentity() && conj.String() != c.String() {
			t.Fatalf("identity conjugation changed the cascade: %q vs %q", conj, c)
		}
	}
}

func TestConjugateIsGroupAction(t *testing.T) {
	src := rng.New(13)
	for trial := 0; trial < 100; trial++ {
		n := 2 + src.Intn(3)
		p := perm.Random(n, src)
		a, b := randomTransform(n, src), randomTransform(n, src)
		left := a.Conjugate(b.Conjugate(p))
		right := a.Compose(b).Conjugate(p)
		if !left.Equal(right) {
			t.Fatalf("n=%d: a(b(p)) != (a∘b)(p)", n)
		}
		if !a.Inverse().Conjugate(a.Conjugate(p)).Equal(p) {
			t.Fatalf("n=%d: conjugation by a then a⁻¹ is not identity", n)
		}
	}
}

// TestCanonicalizeExactInvariance pins the defining property of the exact
// range: every member of an orbit canonicalizes to the same representative,
// and the returned transform actually reaches it.
func TestCanonicalizeExactInvariance(t *testing.T) {
	src := rng.New(17)
	for trial := 0; trial < 300; trial++ {
		n := 1 + src.Intn(ExactVars)
		p := perm.Random(n, src)
		rep, tr, err := Canonicalize(p)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Conjugate(p).Equal(rep) {
			t.Fatalf("n=%d: returned transform does not reach the representative", n)
		}
		q := randomTransform(n, src).Conjugate(p)
		rep2, _, err := Canonicalize(q)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Equal(rep2) {
			t.Fatalf("n=%d: conjugate members canonicalize to %v and %v", n, rep, rep2)
		}
		repRep, repT, err := Canonicalize(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !repRep.Equal(rep) || !repT.Conjugate(rep).Equal(rep) {
			t.Fatalf("n=%d: representative is not a fixed point of canonicalization", n)
		}
	}
}

// naiveOrbitMin is the reference the pruned scan must match: it builds
// every conjugate in full, in the same enumeration order, and keeps the
// first strictly smallest.
func naiveOrbitMin(p perm.Perm, n int) (perm.Perm, Transform) {
	var best perm.Perm
	var bestT Transform
	forEachTransform(n, func(t Transform) {
		if q := t.Conjugate(p); best == nil || lexLess(q, best) {
			best = q
			bestT = Transform{Wires: append([]int(nil), t.Wires...), Polarity: t.Polarity}
		}
	})
	return best, bestT
}

// lexLess reports whether a < b lexicographically. Both must be the same
// length.
func lexLess(a, b perm.Perm) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// forEachTransform calls f with every transform on n wires.
func forEachTransform(n int, f func(Transform)) {
	wires := identity(n).Wires
	for {
		for pol := uint32(0); pol < 1<<uint(n); pol++ {
			f(Transform{Wires: wires, Polarity: pol})
		}
		if !nextPermutation(wires) {
			return
		}
	}
}

// TestCanonicalizeMatchesNaiveScan differentially checks the pruned scan
// against naiveOrbitMin: same representative and same transform, for
// random functions and for symmetric ones (identity, short cascades) whose
// orbit minimum is reached by many transforms, so the tie-break is tested.
func TestCanonicalizeMatchesNaiveScan(t *testing.T) {
	src := rng.New(23)
	for n := 1; n <= ExactVars; n++ {
		inputs := []perm.Perm{perm.Identity(n)}
		for i := 0; i < 8; i++ {
			inputs = append(inputs, perm.Random(n, src), circuit.Random(n, 1+src.Intn(3), circuit.GT, src).Perm())
		}
		for _, p := range inputs {
			rep, tr, err := Canonicalize(p)
			if err != nil {
				t.Fatal(err)
			}
			wantRep, wantT := naiveOrbitMin(p, n)
			if !rep.Equal(wantRep) || tr.String() != wantT.String() {
				t.Fatalf("n=%d p=%v: pruned scan gives %v via %v, naive scan %v via %v",
					n, p, rep, tr, wantRep, wantT)
			}
		}
	}
}

// TestCanonicalizeWholeOrbit conjugates functions by every transform in
// the group (384 at n = 4, 3,840 at n = 5) and requires one representative
// for the whole orbit, each member reaching it through its own transform.
func TestCanonicalizeWholeOrbit(t *testing.T) {
	src := rng.New(29)
	funcs := []perm.Perm{
		perm.Random(4, src), perm.Random(4, src),
		circuit.Random(4, 3, circuit.GT, src).Perm(),
		perm.Random(5, src),
	}
	for _, p := range funcs {
		n := p.Vars()
		rep, _, err := Canonicalize(p)
		if err != nil {
			t.Fatal(err)
		}
		members := 0
		forEachTransform(n, func(g Transform) {
			q := g.Conjugate(p)
			got, tr, err := Canonicalize(q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(rep) {
				t.Fatalf("n=%d: conjugate by %v canonicalizes to %v, not the orbit's %v", n, g, got, rep)
			}
			if !tr.Conjugate(q).Equal(rep) {
				t.Fatalf("n=%d: transform %v does not reach the representative", n, tr)
			}
			members++
		})
		if want := map[int]int{4: 384, 5: 3840}[n]; members != want {
			t.Fatalf("n=%d: walked %d transforms, want %d", n, members, want)
		}
	}
}

// TestCanonicalizeIdentityAboveExact pins the contract above ExactVars:
// the representative is a copy of the input, never the caller's slice,
// and the transform is the identity.
func TestCanonicalizeIdentityAboveExact(t *testing.T) {
	src := rng.New(19)
	for n := ExactVars + 1; n <= ExactVars+3; n++ {
		p := perm.Random(n, src)
		orig := append(perm.Perm(nil), p...)
		rep, tr, err := Canonicalize(p)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Equal(p) || !tr.IsIdentity() || tr.N() != n {
			t.Fatalf("n=%d: got %v via %v, want the input via the identity", n, rep, tr)
		}
		rep[0] ^= 1
		if !p.Equal(orig) {
			t.Fatalf("n=%d: the representative aliases the caller's slice", n)
		}
	}
}

// classCount3 is the number of conjugacy classes the 8! = 40320 reversible
// functions of three variables fall into under the 3!·2^3 = 48 relabeling/
// polarity transforms. The value was computed by exhaustive orbit
// enumeration (Burnside-checkable: orbit sizes divide 48 and sum to 40320)
// and is pinned here as ground truth for the classifier.
const classCount3 = 984

// TestExhaustiveThreeVariableClassCount partitions all 40320 permutations
// on three variables with the classifier and checks the partition is the
// known one: exactly classCount3 classes, every orbit size dividing the
// group order, sizes summing to 40320, and every member reaching its
// representative through the returned transform.
func TestExhaustiveThreeVariableClassCount(t *testing.T) {
	const n = 3
	base := perm.Identity(n)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	classes := make(map[uint64]int) // class hash → orbit size
	repOf := make(map[uint64]string)
	total := 0
	var scan func(k int)
	scan = func(k int) {
		if k == len(idx) {
			p := make(perm.Perm, len(base))
			for i, j := range idx {
				p[i] = uint32(j)
			}
			rep, tr, err := Canonicalize(p)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Conjugate(p).Equal(rep) {
				t.Fatalf("transform does not reach representative for %v", p)
			}
			h := Hash(rep)
			if prev, ok := repOf[h]; ok {
				if prev != rep.String() {
					t.Fatalf("hash collision between classes %s and %s", prev, rep)
				}
			} else {
				repOf[h] = rep.String()
			}
			classes[h]++
			total++
			return
		}
		for i := k; i < len(idx); i++ {
			idx[k], idx[i] = idx[i], idx[k]
			scan(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	scan(0)
	if total != 40320 {
		t.Fatalf("enumerated %d permutations, want 40320", total)
	}
	if len(classes) != classCount3 {
		t.Fatalf("classifier found %d classes, want %d", len(classes), classCount3)
	}
	sum := 0
	for h, size := range classes {
		if 48%size != 0 {
			t.Fatalf("class %016x has orbit size %d, which does not divide the group order 48", h, size)
		}
		sum += size
	}
	if sum != 40320 {
		t.Fatalf("orbit sizes sum to %d, want 40320", sum)
	}
}

func TestCanonicalizeRejectsBadInput(t *testing.T) {
	if _, _, err := Canonicalize(perm.Perm{0, 1, 2}); err == nil {
		t.Fatal("non-power-of-two table accepted")
	}
	if _, _, err := Canonicalize(perm.Perm{0, 0, 1, 1}); err == nil {
		t.Fatal("non-bijection accepted")
	}
	if _, err := (Transform{Wires: []int{0, 0}}).ConjugateCircuit(circuit.New(2)); err == nil {
		t.Fatal("invalid wire map accepted")
	}
}

func TestNextPermutationOrder(t *testing.T) {
	w := []int{0, 1, 2}
	seen := []string{}
	for {
		seen = append(seen, Transform{Wires: w}.String())
		if !nextPermutation(w) {
			break
		}
	}
	if len(seen) != 6 {
		t.Fatalf("enumerated %d wire permutations of 3, want 6", len(seen))
	}
	if seen[0] != "[0 1 2]^0" || seen[5] != "[2 1 0]^0" {
		t.Fatalf("enumeration is not lexicographic: %v", seen)
	}
}

// BenchmarkCanonicalize measures one Canonicalize call on random functions:
// the exact orbit scan at n = 3, 4 and 5, the identity path at n = 6.
//
//	go test -run '^$' -bench Canonicalize -benchmem ./internal/canon
func BenchmarkCanonicalize(b *testing.B) {
	for n := 3; n <= ExactVars+1; n++ {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := rng.New(1)
			ps := make([]perm.Perm, 64)
			for i := range ps {
				ps[i] = perm.Random(n, src)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Canonicalize(ps[i%len(ps)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
