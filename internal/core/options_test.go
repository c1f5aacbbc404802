package core

import (
	"testing"
	"time"

	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
)

func TestWeightsDefault(t *testing.T) {
	o := BasicOptions()
	a, b, g := o.weights()
	if a != 0.3 || b != 0.6 || g != 0.1 {
		t.Errorf("zero-value weights = %v,%v,%v; want the paper's 0.3,0.6,0.1", a, b, g)
	}
	o2 := Options{Alpha: 0.5, Beta: 0.4, Gamma: 0.1}
	a, b, g = o2.weights()
	if a != 0.5 || b != 0.4 || g != 0.1 {
		t.Errorf("explicit weights not honored")
	}
}

func TestAdmissionStrings(t *testing.T) {
	cases := map[Admission]string{
		AdmitBounded:    "bounded",
		AdmitAll:        "all",
		AdmitCumulative: "cumulative",
		AdmitPerStep:    "per-step",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestFirstSolutionStopsEarly(t *testing.T) {
	p := perm.MustFromInts([]int{1, 0, 7, 2, 3, 4, 5, 6})
	opts := DefaultOptions()
	opts.FirstSolution = true
	res, err := SynthesizePerm(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no solution")
	}
	full := DefaultOptions()
	resFull, _ := SynthesizePerm(p, full)
	if res.Steps > resFull.Steps {
		t.Errorf("FirstSolution ran longer (%d) than the full search (%d)", res.Steps, resFull.Steps)
	}
}

func TestTotalStepsDeterministic(t *testing.T) {
	src := rng.New(77)
	p := perm.Random(4, src)
	opts := DefaultOptions()
	opts.TotalSteps = 3000
	a, _ := SynthesizePerm(p, opts)
	b, _ := SynthesizePerm(p, opts)
	if a.Found != b.Found || a.Steps != b.Steps || a.Nodes != b.Nodes {
		t.Errorf("same inputs, different runs: %+v vs %+v", a, b)
	}
	if a.Found && a.Circuit.String() != b.Circuit.String() {
		t.Errorf("nondeterministic circuits: %s vs %s", a.Circuit, b.Circuit)
	}
}

func TestTimeLimitRespected(t *testing.T) {
	// A 6-variable random function with a microscopic time budget must
	// return quickly (found or not).
	p := perm.Random(6, rng.New(5))
	opts := DefaultOptions()
	opts.TimeLimit = 30 * time.Millisecond
	start := time.Now()
	if _, err := SynthesizePerm(p, opts); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("run took %v with a 30ms limit", elapsed)
	}
}

func TestMaxGatesBoundsSolution(t *testing.T) {
	src := rng.New(31)
	for trial := 0; trial < 10; trial++ {
		p := perm.Random(3, src)
		opts := DefaultOptions()
		opts.MaxGates = 9
		res, err := SynthesizePerm(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found && res.Circuit.Len() > 9 {
			t.Fatalf("MaxGates=9 produced %d gates", res.Circuit.Len())
		}
	}
}

func TestRestartsFire(t *testing.T) {
	// A tiny MaxSteps forces restarts on any function that is not solved
	// immediately.
	p := perm.Random(4, rng.New(42))
	opts := DefaultOptions()
	opts.MaxSteps = 5
	opts.TotalSteps = 500
	res, err := SynthesizePerm(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		return // solved before restarting; nothing to assert
	}
	if res.Restarts == 0 {
		t.Error("expected restarts with MaxSteps=5")
	}
}

// TestMaxQueuePrunes lowers the node-count cap and checks at every round
// boundary that the queue never exceeds it and that the prune fired.
func TestMaxQueuePrunes(t *testing.T) {
	spec, err := pprm.FromPerm(perm.Random(5, rng.New(44)))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxSteps = 0 // no restarts: only a prune shrinks the queue by more than one pop
	opts.TotalSteps = 2000
	s := newSearcher(spec, opts)
	s.queueCap = 64
	last, prunes := 0, 0
	s.stepHook = func(s *searcher) {
		n := s.pq.Len()
		if n > s.queueCap {
			t.Fatalf("queue holds %d nodes, cap %d", n, s.queueCap)
		}
		if n < last-1 { // Workers=0 pops one node per round
			prunes++
		}
		last = n
	}
	if r := s.run(); r.Err != nil {
		t.Fatal(r.Err)
	}
	if prunes == 0 {
		t.Fatal("the queue never reached the cap")
	}
}

func TestTraceEventsConsistent(t *testing.T) {
	var pops, pushes, solutions int
	opts := DefaultOptions()
	opts.Trace = func(e Event) {
		switch e.Kind {
		case EventPop:
			pops++
		case EventPush:
			pushes++
		case EventSolution:
			solutions++
		}
	}
	p := perm.MustFromInts([]int{1, 0, 7, 2, 3, 4, 5, 6})
	res, err := SynthesizePerm(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pops != res.Steps {
		t.Errorf("trace pops %d ≠ result steps %d", pops, res.Steps)
	}
	if pops > pushes {
		t.Errorf("more pops (%d) than pushes (%d)", pops, pushes)
	}
	if res.Found && solutions == 0 {
		t.Error("found a solution but no solution event")
	}
}

func TestSynthesizeSpecDirect(t *testing.T) {
	spec, err := pprm.Parse(3, "a' = a ^ 1\nb' = b ^ c ^ ac\nc' = b ^ ab ^ ac")
	if err != nil {
		t.Fatal(err)
	}
	res := Synthesize(spec, DefaultOptions())
	if !res.Found || res.Circuit.Len() != 3 {
		t.Fatalf("direct Spec synthesis failed: %+v", res)
	}
	// The input spec must not be mutated by the search.
	want, _ := pprm.Parse(3, "a' = a ^ 1\nb' = b ^ c ^ ac\nc' = b ^ ab ^ ac")
	if !spec.Equal(want) {
		t.Error("Synthesize mutated its input Spec")
	}
}

func TestVerifyRejectsWrongCircuit(t *testing.T) {
	p := perm.MustFromInts([]int{1, 0, 7, 2, 3, 4, 5, 6})
	res, err := SynthesizePerm(p, DefaultOptions())
	if err != nil || !res.Found {
		t.Fatal("setup failed")
	}
	wrong := perm.Identity(3)
	if Verify(res.Circuit, wrong) == nil {
		t.Error("Verify accepted a circuit for the wrong function")
	}
	if Verify(nil, p) == nil {
		t.Error("Verify accepted a nil circuit")
	}
}
