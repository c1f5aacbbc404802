package core

import (
	"errors"
	"testing"

	"repro/internal/bits"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/verify"
)

// TestNonReversibleSpecTerminates feeds the search a PPRM that does not
// describe a reversible function. No cascade can reduce it to the
// identity, so the search must terminate without a solution instead of
// running forever or inventing a circuit.
func TestNonReversibleSpecTerminates(t *testing.T) {
	spec, err := pprm.Parse(2, "a' = b\nb' = b") // a is lost: not invertible
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.TotalSteps = 20000
	opts.MaxGates = 12
	res := Synthesize(spec, opts)
	if res.Found {
		t.Fatalf("found a circuit for a non-reversible spec: %s", res.Circuit)
	}
}

func TestConstantZeroSpecTerminates(t *testing.T) {
	spec := pprm.NewSpec(2) // every output constant 0
	opts := DefaultOptions()
	opts.TotalSteps = 20000
	opts.MaxGates = 12
	if res := Synthesize(spec, opts); res.Found {
		t.Fatal("found a circuit for the constant-0 spec")
	}
}

func TestSynthesizePermRejectsInvalid(t *testing.T) {
	if _, err := SynthesizePerm(perm.Perm{0, 0, 1, 1}, DefaultOptions()); err == nil {
		t.Error("invalid permutation should be rejected")
	}
	if _, err := SynthesizePerm(perm.Perm{0, 1, 2}, DefaultOptions()); err == nil {
		t.Error("non-power-of-two permutation should be rejected")
	}
}

// TestSingleVariableFunctions covers both 1-variable reversible functions.
func TestSingleVariableFunctions(t *testing.T) {
	id, _ := SynthesizePerm(perm.Perm{0, 1}, DefaultOptions())
	if !id.Found || id.Circuit.Len() != 0 {
		t.Errorf("identity: %+v", id)
	}
	not, _ := SynthesizePerm(perm.Perm{1, 0}, DefaultOptions())
	if !not.Found || not.Circuit.Len() != 1 {
		t.Errorf("NOT: %+v", not)
	}
	if not.Found {
		g := not.Circuit.Gates[0]
		if g.Target != 0 || g.Controls != bits.Mask(0) {
			t.Errorf("NOT circuit = %s", not.Circuit)
		}
	}
}

// TestAllSwaps verifies every wire-swap of three variables synthesizes —
// the family that strict term-monotone admission provably cannot handle.
func TestAllSwaps(t *testing.T) {
	swaps := [][2]int{{0, 1}, {0, 2}, {1, 2}}
	for _, s := range swaps {
		p := make(perm.Perm, 8)
		for x := uint32(0); x < 8; x++ {
			a := x >> uint(s[0]) & 1
			b := x >> uint(s[1]) & 1
			y := x
			if a != b {
				y ^= 1<<uint(s[0]) | 1<<uint(s[1])
			}
			p[x] = y
		}
		res, err := SynthesizePerm(p, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Errorf("swap(%d,%d) not synthesized", s[0], s[1])
			continue
		}
		if res.Circuit.Len() != 3 {
			t.Errorf("swap(%d,%d) used %d gates; 3 CNOTs suffice", s[0], s[1], res.Circuit.Len())
		}
		if err := verify.Circuit(verify.StageSearch, res.Circuit, p); err != nil {
			t.Error(err)
		}
	}
}

// TestMergePrefersInformativeStopReason is the regression test for the
// portfolio diagnosis bug: when no variant finds a circuit, the merged
// StopReason came unconditionally from variant 0. If variant 0 died on a
// recovered panic (StopInternalError) while the others legitimately ran
// their budgets out, callers saw a misleading crash diagnosis instead of
// the real "budget exhausted" answer.
func TestMergePrefersInformativeStopReason(t *testing.T) {
	crash := errors.New("search invariant violated: test")
	results := []Result{
		{StopReason: StopInternalError, Err: crash},
		{StopReason: StopRestartsExhausted},
		{StopReason: StopStepLimit},
	}
	merged := mergeResults(results, false)
	if merged.StopReason != StopRestartsExhausted {
		t.Errorf("merged StopReason = %v, want %v (first informative reason)",
			merged.StopReason, StopRestartsExhausted)
	}
	if !errors.Is(merged.Err, crash) {
		t.Errorf("merged Err = %v, want the variant-0 crash surfaced", merged.Err)
	}

	// Variant 0's reason stays authoritative when it is informative: it ran
	// the caller's own configuration.
	results = []Result{
		{StopReason: StopStepLimit},
		{StopReason: StopInternalError, Err: crash},
		{StopReason: StopRestartsExhausted},
	}
	merged = mergeResults(results, false)
	if merged.StopReason != StopStepLimit {
		t.Errorf("merged StopReason = %v, want variant 0's %v", merged.StopReason, StopStepLimit)
	}
	if !errors.Is(merged.Err, crash) {
		t.Errorf("merged Err = %v, want the crash surfaced", merged.Err)
	}

	// All variants crashed: internal error is then the honest answer.
	results = []Result{
		{StopReason: StopInternalError, Err: crash},
		{StopReason: StopInternalError, Err: crash},
		{StopReason: StopInternalError, Err: crash},
	}
	if merged = mergeResults(results, false); merged.StopReason != StopInternalError {
		t.Errorf("merged StopReason = %v, want %v when every variant crashed",
			merged.StopReason, StopInternalError)
	}

	// Cancellation outranks everything.
	results = []Result{
		{StopReason: StopInternalError, Err: crash},
		{StopReason: StopCanceled},
		{StopReason: StopCanceled},
	}
	if merged = mergeResults(results, true); merged.StopReason != StopCanceled {
		t.Errorf("merged StopReason = %v, want %v on canceled context", merged.StopReason, StopCanceled)
	}
}

// TestStrictAdmissionCannotSwap documents the paper inconsistency: the
// literal Fig. 4 line 31 rule fails on a wire swap.
func TestStrictAdmissionCannotSwap(t *testing.T) {
	p := perm.MustFromInts([]int{0, 2, 1, 3, 4, 6, 5, 7}) // swap wires 0,1
	opts := DefaultOptions()
	opts.Admission = AdmitPerStep
	opts.TotalSteps = 50000
	res, err := SynthesizePerm(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("per-step admission synthesized a swap (%s); the impossibility argument is wrong", res.Circuit)
	}
}
