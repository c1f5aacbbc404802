package core

import (
	"context"
	"testing"

	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
)

func TestIterativeNeverWorse(t *testing.T) {
	src := rng.New(55)
	for trial := 0; trial < 15; trial++ {
		p := perm.Random(4, src)
		spec, err := pprm.FromPerm(p)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.TotalSteps = 20000
		opts.ImproveSteps = 2000
		base := Synthesize(spec, opts)
		iter := SynthesizeIterative(spec, opts, 3)
		if base.Found != iter.Found {
			t.Fatalf("trial %d: found mismatch base=%v iter=%v", trial, base.Found, iter.Found)
		}
		if !base.Found {
			continue
		}
		if iter.Circuit.Len() > base.Circuit.Len() {
			t.Errorf("trial %d: tightening grew the circuit %d → %d",
				trial, base.Circuit.Len(), iter.Circuit.Len())
		}
		if err := Verify(iter.Circuit, p); err != nil {
			t.Error(err)
		}
	}
}

func TestIterativeOnUnsolvable(t *testing.T) {
	spec, _ := pprm.Parse(2, "a' = b\nb' = b")
	opts := DefaultOptions()
	opts.TotalSteps = 5000
	opts.MaxGates = 8
	if res := SynthesizeIterative(spec, opts, 3); res.Found {
		t.Error("iterative found a circuit for a non-reversible spec")
	}
}

func TestPortfolioSolvesPlateauFunction(t *testing.T) {
	// rd53-like counting functions defeat the default charge but not the
	// portfolio; use a small weight-counting embedding that exhibits the
	// same plateau structure.
	p := perm.Random(4, rng.New(4242))
	spec, _ := pprm.FromPerm(p)
	opts := DefaultOptions()
	opts.TotalSteps = 30000
	opts.ImproveSteps = 3000
	res := SynthesizePortfolio(spec, opts, 2)
	if !res.Found {
		t.Fatal("portfolio failed on a random 4-variable function")
	}
	if err := Verify(res.Circuit, p); err != nil {
		t.Error(err)
	}
	// Portfolio accounting must reflect all variants.
	single := Synthesize(spec, opts)
	if res.Steps <= single.Steps {
		t.Errorf("portfolio steps (%d) should exceed a single run's (%d)", res.Steps, single.Steps)
	}
}

func TestPortfolioQualityAtLeastSingle(t *testing.T) {
	src := rng.New(77)
	for trial := 0; trial < 8; trial++ {
		p := perm.Random(4, src)
		spec, _ := pprm.FromPerm(p)
		opts := DefaultOptions()
		opts.TotalSteps = 15000
		opts.ImproveSteps = 1500
		single := Synthesize(spec, opts)
		port := SynthesizePortfolio(spec, opts, 2)
		if single.Found && (!port.Found || port.Circuit.Len() > single.Circuit.Len()) {
			t.Errorf("trial %d: portfolio worse than single run (%v/%d vs %v/%d)",
				trial, port.Found, gateLen(port), single.Found, single.Circuit.Len())
		}
		if port.Found {
			if err := Verify(port.Circuit, p); err != nil {
				t.Error(err)
			}
		}
	}
}

func gateLen(r Result) int {
	if r.Circuit == nil {
		return -1
	}
	return r.Circuit.Len()
}

// TestPortfolioDeterministic is the acceptance test for the parallel
// portfolio: under deterministic budgets the goroutine schedule must not
// leak into the answer. Repeated runs return byte-identical circuits.
func TestPortfolioDeterministic(t *testing.T) {
	for _, seed := range []uint64{11, 12, 13} {
		p := perm.Random(5, rng.New(seed))
		spec, err := pprm.FromPerm(p)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.TotalSteps = 3000
		opts.ImproveSteps = 1000
		var first Result
		for rep := 0; rep < 2; rep++ {
			res := SynthesizePortfolio(spec, opts, 2)
			if rep == 0 {
				first = res
				if res.Found {
					if err := Verify(res.Circuit, p); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			if res.Found != first.Found {
				t.Fatalf("seed %d rep %d: found=%v, first run found=%v",
					seed, rep, res.Found, first.Found)
			}
			if !res.Found {
				continue
			}
			if got, want := res.Circuit.String(), first.Circuit.String(); got != want {
				t.Errorf("seed %d rep %d: portfolio not deterministic:\n got %s\nwant %s",
					seed, rep, got, want)
			}
			if res.Steps != first.Steps {
				t.Errorf("seed %d rep %d: Steps = %d, first run %d",
					seed, rep, res.Steps, first.Steps)
			}
		}
	}
}

// TestPortfolioCanceled: a pre-canceled context must come back quickly
// with StopCanceled and no crash from the worker goroutines.
func TestPortfolioCanceled(t *testing.T) {
	p := perm.Random(6, rng.New(99))
	spec, err := pprm.FromPerm(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.TotalSteps = 1 << 30
	res := SynthesizePortfolioContext(ctx, spec, opts, 3)
	if res.Found {
		t.Error("pre-canceled portfolio claims a circuit")
	}
	if res.StopReason != StopCanceled {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopCanceled)
	}
}

// TestPortfolioFirstSolution: the latency-over-determinism mode still
// returns a valid, verified circuit.
func TestPortfolioFirstSolution(t *testing.T) {
	p := perm.Random(5, rng.New(101))
	spec, err := pprm.FromPerm(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.FirstSolution = true
	opts.TotalSteps = 200000
	res := SynthesizePortfolio(spec, opts, 0)
	if !res.Found {
		t.Fatal("portfolio failed on a random 5-variable function")
	}
	if res.StopReason != StopSolved {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopSolved)
	}
	if err := Verify(res.Circuit, p); err != nil {
		t.Error(err)
	}
}

// TestIterativeCanceled: the round loop must notice cancellation between
// rounds and surface it.
func TestIterativeCanceled(t *testing.T) {
	p := perm.Random(5, rng.New(202))
	spec, err := pprm.FromPerm(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.TotalSteps = 1 << 30
	res := SynthesizeIterativeContext(ctx, spec, opts, 3)
	if res.Found {
		t.Error("pre-canceled iterative synthesis claims a circuit")
	}
	if res.StopReason != StopCanceled {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopCanceled)
	}
}
