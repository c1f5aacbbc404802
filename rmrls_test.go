package rmrls

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pprm"
	"repro/internal/rng"
)

func TestQuickstartFlow(t *testing.T) {
	spec := MustParseSpec("{1, 0, 7, 2, 3, 4, 5, 6}")
	res, err := Synthesize(spec, DefaultOptions())
	if err != nil || !res.Found {
		t.Fatalf("synthesize: %v %+v", err, res)
	}
	if res.Circuit.Len() != 3 {
		t.Errorf("gates = %d, want 3", res.Circuit.Len())
	}
	if err := Verify(res.Circuit, spec); err != nil {
		t.Error(err)
	}
}

// TestVerifyReportsMismatch: the facade's Verify rejects a circuit for the
// wrong function and a nil circuit, each as a typed *VerifyError.
func TestVerifyReportsMismatch(t *testing.T) {
	spec := MustParseSpec("{1, 0, 7, 2, 3, 4, 5, 6}")
	res, err := Synthesize(spec, DefaultOptions())
	if err != nil || !res.Found {
		t.Fatalf("synthesize: %v %+v", err, res)
	}
	var verr *VerifyError
	if err := Verify(res.Circuit, MustParseSpec("{0, 1, 2, 3, 4, 5, 6, 7}")); !errors.As(err, &verr) {
		t.Errorf("wrong function: err = %v, want a *VerifyError", err)
	} else if verr.Input != 0 || verr.Got != 1 || verr.Want != 0 {
		t.Errorf("wrong function: mismatch at input %d (%d vs %d), want input 0 (1 vs 0)", verr.Input, verr.Got, verr.Want)
	}
	if err := Verify(nil, spec); !errors.As(err, &verr) {
		t.Errorf("nil circuit: err = %v, want a *VerifyError", err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	if _, err := ParseSpec("{0, 0, 1}"); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestPPRMParseSynthesize(t *testing.T) {
	spec, err := ParsePPRM(3, "a' = a ^ 1\nb' = b ^ c ^ ac\nc' = b ^ ab ^ ac")
	if err != nil {
		t.Fatal(err)
	}
	res := SynthesizeSpec(spec, DefaultOptions())
	if !res.Found || res.Circuit.Len() != 3 {
		t.Fatalf("PPRM synthesis failed: %+v", res)
	}
}

func TestCircuitParseFacade(t *testing.T) {
	c, err := ParseCircuit(3, "TOF1(a) TOF3(c,a,b) TOF3(b,a,c)")
	if err != nil {
		t.Fatal(err)
	}
	want := MustParseSpec("{1, 0, 7, 2, 3, 4, 5, 6}")
	if err := Verify(c, want); err != nil {
		t.Error(err)
	}
}

func TestMMDFacade(t *testing.T) {
	p := RandomFunction(4, 99)
	for _, bi := range []bool{false, true} {
		c := SynthesizeMMD(p, bi)
		if err := Verify(c, p); err != nil {
			t.Errorf("bidirectional=%v: %v", bi, err)
		}
	}
}

func TestRandomCircuitFacade(t *testing.T) {
	c, err := RandomCircuit(6, 12, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 12 || !c.NCTOnly() {
		t.Errorf("RandomCircuit shape wrong: %d gates, NCT=%v", c.Len(), c.NCTOnly())
	}
	if _, err := RandomCircuit(0, 3, false, 1); err == nil {
		t.Error("zero wires should fail")
	}
}

func TestQuantumCostFacade(t *testing.T) {
	if QuantumCost(3, 3) != 5 {
		t.Error("TOF3 cost should be 5")
	}
}

func TestBenchmarksFacade(t *testing.T) {
	if len(Benchmarks()) < 29 {
		t.Errorf("only %d benchmarks registered", len(Benchmarks()))
	}
	b, err := BenchmarkByName("graycode6")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(b.Spec, DefaultOptions())
	if err != nil || !res.Found {
		t.Fatalf("graycode6: %v %+v", err, res)
	}
	// Binary→Gray needs exactly n−1 CNOTs; our search must find the
	// 5-gate optimum the paper reports.
	if res.Circuit.Len() != 5 {
		t.Errorf("graycode6 gates = %d, want 5", res.Circuit.Len())
	}
}

// TestSynthesisIsSoundProperty is the repository's central property: every
// circuit the search reports realizes its specification.
func TestSynthesisIsSoundProperty(t *testing.T) {
	f := func(seed uint64, vars uint8) bool {
		n := int(vars%4) + 1
		p := RandomFunction(n, seed)
		opts := DefaultOptions()
		opts.TotalSteps = 30000
		opts.ImproveSteps = 3000
		res, err := Synthesize(p, opts)
		if err != nil {
			return false
		}
		if !res.Found {
			return true // not finding is allowed; lying is not
		}
		return Verify(res.Circuit, p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEmbedThenSynthesizeProperty: embedding an arbitrary irreversible
// table and synthesizing the result must reproduce the original function
// on the real rows.
func TestEmbedThenSynthesizeProperty(t *testing.T) {
	src := rng.New(21)
	for trial := 0; trial < 10; trial++ {
		in := 2 + src.Intn(2)
		out := 1 + src.Intn(2)
		tab := &TruthTable{Inputs: in, Outputs: out, Rows: make([]uint32, 1<<uint(in))}
		for x := range tab.Rows {
			tab.Rows[x] = uint32(src.Intn(1 << uint(out)))
		}
		emb, err := Embed(tab)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.TotalSteps = 50000
		res, err := Synthesize(Perm(emb.Spec), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Logf("trial %d: embedding not synthesized in budget (allowed)", trial)
			continue
		}
		for x := uint32(0); x < uint32(len(tab.Rows)); x++ {
			if got := emb.OriginalOutput(res.Circuit.Apply(x)); got != tab.Rows[x] {
				t.Fatalf("trial %d: circuit computes %d at row %d, want %d",
					trial, got, x, tab.Rows[x])
			}
		}
	}
}

func TestOptimalFacade(t *testing.T) {
	tab := OptimalDistances(false)
	d, err := tab.Lookup(MustParseSpec("{1, 0, 7, 2, 3, 4, 5, 6}"))
	if err != nil || d != 3 {
		t.Errorf("optimal distance = %d, %v; want 3", d, err)
	}
}

// TestSynthesisNearOptimal3Var quantifies solution quality against the
// exact optimum on a sample, mirroring Table I's "ours vs optimal" gap
// (paper: 6.10 vs 5.87 average, i.e. ≈0.25 extra gates per function).
func TestSynthesisNearOptimal3Var(t *testing.T) {
	tab := OptimalDistances(false)
	src := rng.New(23)
	totalGap, samples := 0, 120
	opts := DefaultOptions()
	opts.Library = NCT
	opts.TotalSteps = 4000
	opts.ImproveSteps = 1500
	opts.MaxGates = 20
	found := 0
	for i := 0; i < samples; i++ {
		p := RandomFunction(3, src.Uint64())
		res, err := Synthesize(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			continue
		}
		found++
		opt, err := tab.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		gap := res.Circuit.Len() - opt
		if gap < 0 {
			t.Fatalf("circuit beats the proven optimum for %s: %d < %d", p, res.Circuit.Len(), opt)
		}
		totalGap += gap
	}
	if found < samples*9/10 {
		t.Errorf("only %d/%d 3-variable functions synthesized", found, samples)
	}
	if avg := float64(totalGap) / float64(found); avg > 1.5 {
		t.Errorf("average optimality gap %.2f gates is far above the paper's ≈0.25", avg)
	}
}

func TestBenchListNamesFormatted(t *testing.T) {
	for _, b := range Benchmarks() {
		if strings.TrimSpace(b.Name) == "" || b.Wires < 1 {
			t.Errorf("malformed benchmark entry: %+v", b)
		}
	}
}

var _ = pprm.Identity // keep the import pinned for the type alias check below

// Compile-time checks that the facade aliases stay aligned.
var (
	_ *Spec   = pprm.Identity(2)
	_ Options = DefaultOptions()
)

func TestDecomposeNCTFacade(t *testing.T) {
	c, err := ParseCircuit(6, "TOF5(e,d,c,b,a) TOF2(a,b)")
	if err != nil {
		t.Fatal(err)
	}
	nct, err := DecomposeNCT(c)
	if err != nil {
		t.Fatal(err)
	}
	if !nct.NCTOnly() {
		t.Error("output not NCT")
	}
	if !nct.Perm().Equal(c.Perm()) {
		t.Error("decomposition changed the function")
	}
}

func TestRecognizeFredkinFacade(t *testing.T) {
	c, _ := ParseCircuit(3, "TOF3(c,a,b) TOF3(c,b,a) TOF3(c,a,b)")
	mixed := RecognizeFredkin(c)
	if mixed.FredkinCount() != 1 {
		t.Errorf("fredkin not recognized: %s", mixed)
	}
}

func TestPeepholeFacade(t *testing.T) {
	c, _ := ParseCircuit(3, "TOF1(a) TOF1(a) TOF2(a,b)")
	out := NewPeepholeOptimizer().Optimize(c)
	if out.Len() != 1 {
		t.Errorf("peephole left %d gates", out.Len())
	}
	if !out.Perm().Equal(c.Perm()) {
		t.Error("function changed")
	}
}

// TestPostprocessPipelineProperty: synthesize → peephole → decompose on a
// widened circuit preserves the function for random specifications.
func TestPostprocessPipelineProperty(t *testing.T) {
	po := NewPeepholeOptimizer()
	src := rng.New(808)
	for trial := 0; trial < 6; trial++ {
		p := RandomFunction(4, src.Uint64())
		opts := DefaultOptions()
		opts.TotalSteps = 30000
		res, err := Synthesize(p, opts)
		if err != nil || !res.Found {
			t.Fatalf("trial %d: synthesis failed", trial)
		}
		small := po.Optimize(res.Circuit)
		if err := Verify(small, p); err != nil {
			t.Fatalf("trial %d peephole: %v", trial, err)
		}
		wide := &Circuit{Wires: small.Wires + 1, Gates: small.Gates}
		nct, err := DecomposeNCT(wide)
		if err != nil {
			t.Fatalf("trial %d decompose: %v", trial, err)
		}
		widePerm := make(Perm, 2*len(p))
		for x, y := range p {
			widePerm[x] = y
			widePerm[x+len(p)] = y + uint32(len(p))
		}
		if err := Verify(nct, widePerm); err != nil {
			t.Fatalf("trial %d NCT: %v", trial, err)
		}
	}
}

// TestContextFacade exercises the context-aware entry points and the
// re-exported stop-reason constants through the public API alone.
func TestContextFacade(t *testing.T) {
	p := RandomFunction(6, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.TotalSteps = 1 << 30
	res, err := SynthesizeContext(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.StopReason != StopCanceled {
		t.Errorf("canceled run: found=%v stop=%v", res.Found, res.StopReason)
	}
	if res.StopReason.String() != "canceled" {
		t.Errorf("StopReason.String() = %q", res.StopReason.String())
	}

	solved, err := SynthesizeContext(context.Background(), MustParseSpec("{1, 0, 3, 2}"), DefaultOptions())
	if err != nil || !solved.Found || solved.StopReason != StopSolved {
		t.Errorf("solved run: err=%v found=%v stop=%v", err, solved.Found, solved.StopReason)
	}

	spec, err := PPRMOf(RandomFunction(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	port := SynthesizePortfolioContext(context.Background(), spec, opts2(20000), 2)
	if !port.Found || port.StopReason != StopSolved {
		t.Errorf("portfolio: found=%v stop=%v", port.Found, port.StopReason)
	}
	iter := SynthesizeIterativeContext(context.Background(), spec, opts2(20000), 2)
	if !iter.Found || iter.StopReason != StopSolved {
		t.Errorf("iterative: found=%v stop=%v", iter.Found, iter.StopReason)
	}
}

func opts2(steps int) Options {
	o := DefaultOptions()
	o.TotalSteps = steps
	o.ImproveSteps = steps / 10
	return o
}

func TestSynthesizePortfolioFacade(t *testing.T) {
	b, err := BenchmarkByName("hwb4")
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := b.PPRMSpec()
	opts := DefaultOptions()
	opts.TotalSteps = 40000
	res := SynthesizePortfolio(spec, opts, 2)
	if !res.Found {
		t.Fatal("portfolio failed on hwb4")
	}
	if err := Verify(res.Circuit, b.Spec); err != nil {
		t.Error(err)
	}
}
