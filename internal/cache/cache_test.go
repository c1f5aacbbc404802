package cache_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mmd"
	"repro/internal/perm"
	"repro/internal/rng"
)

const fpA, fpB = 0x1111, 0x2222

// randomSpec returns a random circuit together with the permutation it
// realizes — the cheap way to mint (function, known-good cascade) pairs
// without running the synthesizer.
func randomSpec(n, gates int, src *rng.Source) (*circuit.Circuit, perm.Perm) {
	c := circuit.Random(n, gates, circuit.GT, src)
	return c, c.Perm()
}

func randomTransform(n int, src *rng.Source) canon.Transform {
	t := canon.Transform{Wires: make([]int, n)}
	for i := range t.Wires {
		t.Wires[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		t.Wires[i], t.Wires[j] = t.Wires[j], t.Wires[i]
	}
	t.Polarity = uint32(src.Intn(1 << uint(n)))
	return t
}

func TestSameFunctionHitIsByteIdentical(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		// Fresh cache per trial: two random functions can share a class,
		// and a shared entry would (correctly) derive instead of echoing.
		// n = 6 is above canon.ExactVars, where the class is the
		// function itself: an exact repeat must still hit, underived.
		c := cache.New()
		n := 3 + trial%4
		circ, p := randomSpec(n, 1+src.Intn(10), src)
		if _, _, err := c.Put(p, fpA, circ); err != nil {
			t.Fatal(err)
		}
		hit, ok := c.Lookup(p, fpA)
		if !ok {
			t.Fatalf("trial %d: stored function missed", trial)
		}
		if hit.Derived {
			t.Fatalf("trial %d: same-function hit reported as derived", trial)
		}
		if hit.Circuit.String() != circ.String() {
			t.Fatalf("trial %d: same-function hit not byte-identical:\n got %s\nwant %s",
				trial, hit.Circuit, circ)
		}
		if s := c.Stats(); s.Derives != 0 || s.Hits != 1 {
			t.Fatalf("trial %d: stats %+v, want one underived hit", trial, s)
		}
	}
}

func TestClassMembersHitByConjugation(t *testing.T) {
	src := rng.New(2)
	c := cache.New()
	for trial := 0; trial < 50; trial++ {
		n := 3 + src.Intn(3)
		circ, p := randomSpec(n, 1+src.Intn(8), src)
		if _, _, err := c.Put(p, fpA, circ); err != nil {
			t.Fatal(err)
		}
		q := randomTransform(n, src).Conjugate(p)
		hit, ok := c.Lookup(q, fpA)
		if !ok {
			t.Fatalf("trial %d: %d-variable conjugate member missed", trial, n)
		}
		if !hit.Circuit.Perm().Equal(q) {
			t.Fatalf("trial %d: derived circuit realizes the wrong function", trial)
		}
		if got, max := len(hit.Circuit.Gates), len(circ.Gates)+2*n; got > max {
			t.Fatalf("trial %d: derived circuit has %d gates, conjugation bound is %d", trial, got, max)
		}
	}
}

func TestFingerprintIsolation(t *testing.T) {
	src := rng.New(3)
	c := cache.New()
	circ, p := randomSpec(3, 5, src)
	if _, _, err := c.Put(p, fpA, circ); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(p, fpB); ok {
		t.Fatal("entry stored under one options fingerprint served to another")
	}
	if _, ok := c.Lookup(p, fpA); !ok {
		t.Fatal("entry missing under its own fingerprint")
	}
}

func TestPutKeepsSmallerCircuit(t *testing.T) {
	src := rng.New(4)
	c := cache.New()
	small, p := randomSpec(3, 2, src)
	// A larger realization of the same p: pad with a self-canceling NOT
	// pair.
	padded := circuit.New(3)
	padded.Append(small.Gates...)
	padded.Append(circuit.Gate{Target: 0}, circuit.Gate{Target: 0})
	if _, _, err := c.Put(p, fpA, small); err != nil {
		t.Fatal(err)
	}
	if _, stored, err := c.Put(p, fpA, padded); err != nil || stored {
		t.Fatalf("larger circuit replaced smaller one (stored=%v err=%v)", stored, err)
	}
	hit, ok := c.Lookup(p, fpA)
	if !ok || len(hit.Circuit.Gates) != len(small.Gates) {
		t.Fatalf("lookup returned %d gates, want %d", len(hit.Circuit.Gates), len(small.Gates))
	}
	if _, stored, err := c.Put(p, fpB, padded); err != nil || !stored {
		t.Fatalf("same class under a new fingerprint not stored (stored=%v err=%v)", stored, err)
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	src := rng.New(5)
	c1, err := cache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	circ, p := randomSpec(3, 6, src)
	if _, stored, err := c1.Put(p, fpA, circ); err != nil || !stored {
		t.Fatalf("put: stored=%v err=%v", stored, err)
	}
	c2, err := cache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	hit, ok := c2.Lookup(p, fpA)
	if !ok || !hit.Circuit.Perm().Equal(p) {
		t.Fatal("entry did not survive a reopen")
	}
	// And a different member of the class hits through the same file.
	q := randomTransform(3, src).Conjugate(p)
	c3, _ := cache.Open(dir, nil)
	if hit, ok := c3.Lookup(q, fpA); !ok || !hit.Circuit.Perm().Equal(q) {
		t.Fatal("class member did not hit after reopen")
	}
	if s := c2.Stats(); s.CorruptDropped != 0 {
		t.Fatalf("clean reopen counted corruption: %+v", s)
	}
}

func TestCorruptEntryReadsAsMiss(t *testing.T) {
	src := rng.New(6)
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bitflip", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }},
		{"badmagic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"version", func(b []byte) []byte { b[4] = 99; return b }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c1, err := cache.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			circ, p := randomSpec(3, 6, src)
			if _, _, err := c1.Put(p, fpA, circ); err != nil {
				t.Fatal(err)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.rmce"))
			if err != nil || len(files) != 1 {
				t.Fatalf("want one entry file, got %v (%v)", files, err)
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], tc.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			c2, err := cache.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c2.Lookup(p, fpA); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			s := c2.Stats()
			if s.CorruptDropped != 1 || s.Misses != 1 {
				t.Fatalf("stats %+v, want 1 corrupt drop + 1 miss", s)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*.rmce")); len(left) != 0 {
				t.Fatalf("corrupt file not removed: %v", left)
			}
			// The slot is reusable: re-store and hit.
			if _, stored, err := c2.Put(p, fpA, circ); err != nil || !stored {
				t.Fatalf("re-put after corruption: stored=%v err=%v", stored, err)
			}
			if _, ok := c2.Lookup(p, fpA); !ok {
				t.Fatal("re-stored entry missed")
			}
		})
	}
}

// TestPoisonedEntryIsDroppedNotServed plants an internally consistent
// entry (valid CRC, valid structures) whose circuit does not realize its
// class — the scenario the verification gate exists for.
func TestPoisonedEntryIsDroppedNotServed(t *testing.T) {
	src := rng.New(7)
	dir := t.TempDir()
	c1, err := cache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	circ, p := randomSpec(3, 6, src)
	if _, _, err := c1.Put(p, fpA, circ); err != nil {
		t.Fatal(err)
	}
	// Copy p's (valid, CRC-clean) entry bytes to the on-disk key of a
	// *different* class: every lookup of that class then decodes a
	// representative that does not match, or — if we instead forge the
	// representative — a circuit that fails verification. Either way the
	// gate must answer miss. Learn q's key filename by storing a real
	// entry for q in a scratch directory.
	files, _ := filepath.Glob(filepath.Join(dir, "*.rmce"))
	if len(files) != 1 {
		t.Fatalf("want one entry, got %v", files)
	}
	var q perm.Perm
	var qName string
	for {
		q = perm.Random(3, src)
		scratch := t.TempDir()
		sc, _ := cache.Open(scratch, nil)
		if _, stored, _ := sc.Put(q, fpA, qCirc(q)); !stored {
			continue
		}
		sf, _ := filepath.Glob(filepath.Join(scratch, "*.rmce"))
		if len(sf) != 1 {
			t.Fatalf("scratch store wrote %v", sf)
		}
		qName = filepath.Base(sf[0])
		if qName != filepath.Base(files[0]) {
			break
		}
	}
	// Plant p's entry bytes under q's key: structurally valid, CRC-clean,
	// and wrong for every member of q's class.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, qName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := cache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Lookup(q, fpA); ok {
		t.Fatal("planted wrong-class entry served as a hit")
	}
	if _, err := os.Stat(filepath.Join(dir, qName)); !os.IsNotExist(err) {
		t.Fatal("planted entry not dropped")
	}
}

// qCirc builds some cascade realizing q by brute force over tiny random
// circuits — only used to learn q's on-disk key.
func qCirc(q perm.Perm) *circuit.Circuit {
	// A permutation network: decompose q into transpositions on the
	// 3-variable truth table is overkill; instead synthesize via core with
	// a generous budget (3-variable functions solve in microseconds).
	opts := core.DefaultOptions()
	opts.FirstSolution = true
	res, err := core.SynthesizePerm(q, opts)
	if err != nil || !res.Found {
		panic("qCirc: 3-variable synthesis failed")
	}
	return res.Circuit
}

// TestExhaustiveThreeVariableClassCoverage is the acceptance test for the
// tentpole: store one circuit per canonical class (984 of them) and prove
// the cache answers *all* 40,320 three-variable functions from those
// entries — every hit derived by conjugation and every derived circuit
// verified to realize the requested function. Class-member circuits come
// from the deterministic MMD baseline (a fraction of a percent of 3-var
// functions defeat the default search budget, and the cache's contract
// does not care who built the cascade — it re-verifies every answer).
func TestExhaustiveThreeVariableClassCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 3-variable sweep")
	}
	c := cache.New()
	const fp = fpA
	synths := 0
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var scan func(k int)
	total := 0
	var failed bool
	scan = func(k int) {
		if failed {
			return
		}
		if k == len(idx) {
			total++
			p := make(perm.Perm, 8)
			for i, j := range idx {
				p[i] = uint32(j)
			}
			if hit, ok := c.Lookup(p, fp); ok {
				if !hit.Circuit.Perm().Equal(p) {
					t.Errorf("cache answered %v with a circuit for a different function", p)
					failed = true
				}
				return
			}
			circ := mmd.Synthesize(p, mmd.Bidirectional)
			if !circ.Perm().Equal(p) {
				t.Errorf("mmd baseline failed for %v", p)
				failed = true
				return
			}
			synths++
			if _, stored, err := c.Put(p, fp, circ); err != nil || !stored {
				t.Errorf("put failed for %v: stored=%v err=%v", p, stored, err)
				failed = true
			}
			return
		}
		for i := k; i < len(idx); i++ {
			idx[k], idx[i] = idx[i], idx[k]
			scan(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	scan(0)
	if failed {
		t.FailNow()
	}
	if total != 40320 {
		t.Fatalf("enumerated %d functions, want 40320", total)
	}
	if synths != 984 {
		t.Fatalf("synthesized %d class representatives, want 984", synths)
	}
	s := c.Stats()
	if s.Hits != 40320-984 || s.Misses != 984 || s.Stores != 984 {
		t.Fatalf("stats %+v, want hits=%d misses=984 stores=984", s, 40320-984)
	}
	if s.VerifyRejected != 0 || s.CorruptDropped != 0 {
		t.Fatalf("stats %+v, want no rejects or corruption", s)
	}
	if s.Derives != s.Hits {
		// The enumeration never looks the same function up twice, so every
		// hit is a *different* member of a stored class and must have been
		// derived by a non-identity conjugation.
		t.Fatalf("%d of %d hits derived, want all of them", s.Derives, s.Hits)
	}
}

func TestUncacheableWidthIgnored(t *testing.T) {
	c := cache.New()
	p := perm.Identity(17)
	if _, ok := c.Lookup(p, fpA); ok {
		t.Fatal("17-variable lookup hit")
	}
	if class, stored, err := c.Put(p, fpA, circuit.New(17)); class != 0 || stored || err != nil {
		t.Fatalf("17-variable put accepted: class=%d stored=%v err=%v", class, stored, err)
	}
	if s := c.Stats(); s.Hits+s.Misses+s.Stores != 0 {
		t.Fatalf("uncacheable width moved counters: %+v", s)
	}
}

func TestPutRejectsMismatchedCircuit(t *testing.T) {
	c := cache.New()
	p := perm.Identity(3)
	if _, _, err := c.Put(p, fpA, circuit.New(4)); err == nil {
		t.Fatal("wrong-width circuit accepted")
	}
	if _, _, err := c.Put(p, fpA, nil); err == nil {
		t.Fatal("nil circuit accepted")
	}
	bad := circuit.New(3)
	bad.Append(circuit.Gate{Target: 9})
	if _, _, err := c.Put(p, fpA, bad); err == nil || !strings.Contains(err.Error(), "cache") {
		t.Fatalf("invalid circuit accepted (err=%v)", err)
	}
}
