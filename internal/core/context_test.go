package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
	"repro/internal/verify"
)

// hardSpec returns a 6-variable random function: large enough that the
// search runs for many thousands of expansions under a generous budget.
func hardSpec(t testing.TB, seed uint64) *pprm.Spec {
	t.Helper()
	p := perm.Random(6, rng.New(seed))
	spec, err := pprm.FromPerm(p)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// unsolvableSpec returns a 2-variable non-reversible PPRM: no cascade can
// reduce it to the identity, so every run ends on a limit.
func unsolvableSpec(t testing.TB) *pprm.Spec {
	t.Helper()
	spec, err := pprm.Parse(2, "a' = b\nb' = b")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.TotalSteps = 1 << 30
	res := SynthesizeContext(ctx, hardSpec(t, 1), opts)
	if res.StopReason != StopCanceled {
		t.Fatalf("StopReason = %v, want %v", res.StopReason, StopCanceled)
	}
	if res.Found {
		t.Error("pre-canceled context should not find a circuit")
	}
	if res.Steps > pollStride {
		t.Errorf("pre-canceled run did %d expansions, want ≤ %d", res.Steps, pollStride)
	}
}

// TestCancellationLatencyBounded asserts the tentpole contract: after
// cancel() the search returns within pollStride further expansions. The
// cancel is issued synchronously from the trace callback, so the
// measurement has no scheduling noise.
func TestCancellationLatencyBounded(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 500
	pops := 0
	opts := DefaultOptions()
	opts.TotalSteps = 1 << 30
	opts.ImproveSteps = 0
	opts.Trace = func(e Event) {
		if e.Kind == EventPop {
			pops++
			if pops == cancelAt {
				cancel()
			}
		}
	}
	res := SynthesizeContext(ctx, hardSpec(t, 2), opts)
	if res.StopReason != StopCanceled {
		t.Fatalf("StopReason = %v, want %v (steps=%d)", res.StopReason, StopCanceled, res.Steps)
	}
	if res.Steps > cancelAt+pollStride {
		t.Errorf("canceled at expansion %d but ran to %d; latency bound is %d",
			cancelAt, res.Steps, pollStride)
	}
	if res.Steps == 0 || res.Nodes == 0 || res.Elapsed <= 0 {
		t.Errorf("canceled Result lost its telemetry: %+v", res)
	}
}

// TestCancelReturnsBestSoFar cancels during the improvement phase and
// checks the partial result still carries the best circuit found.
func TestCancelReturnsBestSoFar(t *testing.T) {
	p := perm.Random(5, rng.New(3))
	spec, err := pprm.FromPerm(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := DefaultOptions()
	opts.TotalSteps = 1 << 30
	opts.ImproveSteps = 0 // improve until canceled
	opts.Trace = func(e Event) {
		if e.Kind == EventSolution {
			cancel()
		}
	}
	res := SynthesizeContext(ctx, spec, opts)
	if !res.Found {
		t.Fatal("canceled run dropped its best-so-far circuit")
	}
	if res.StopReason != StopCanceled {
		t.Fatalf("StopReason = %v, want %v", res.StopReason, StopCanceled)
	}
	if err := verify.Circuit(verify.StageSearch, res.Circuit, p); err != nil {
		t.Error(err)
	}
}

func TestStopReasonStepLimit(t *testing.T) {
	opts := DefaultOptions()
	opts.TotalSteps = 50
	res := Synthesize(hardSpec(t, 4), opts)
	if res.StopReason != StopStepLimit {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopStepLimit)
	}
	if res.Steps > 50 {
		t.Errorf("Steps = %d, exceeds TotalSteps", res.Steps)
	}
}

func TestStopReasonDeadline(t *testing.T) {
	opts := DefaultOptions()
	opts.TimeLimit = time.Nanosecond
	res := Synthesize(hardSpec(t, 5), opts)
	if res.StopReason != StopDeadline {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopDeadline)
	}
	if res.Found {
		t.Error("1 ns budget should not synthesize a 6-variable function")
	}
}

func TestStopReasonSolved(t *testing.T) {
	res, err := SynthesizePerm(perm.Perm{1, 0, 3, 2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.StopReason != StopSolved {
		t.Errorf("found=%v reason=%v, want solved", res.Found, res.StopReason)
	}
	// The identity short-circuit must report the same reason.
	id, _ := SynthesizePerm(perm.Perm{0, 1, 2, 3}, DefaultOptions())
	if !id.Found || id.StopReason != StopSolved {
		t.Errorf("identity: found=%v reason=%v", id.Found, id.StopReason)
	}
}

func TestStopReasonMemoryLimit(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSteps = 0 // no restarts: the memory stop must surface directly
	opts.MaxMemory = 256
	opts.TotalSteps = 1 << 30
	res := Synthesize(hardSpec(t, 6), opts)
	if res.StopReason != StopMemoryLimit {
		t.Fatalf("StopReason = %v, want %v", res.StopReason, StopMemoryLimit)
	}
	if res.PeakQueueBytes <= 0 {
		t.Error("PeakQueueBytes not accounted")
	}
	if res.Steps > 1000 {
		t.Errorf("a 256-byte ceiling should stop almost immediately, ran %d steps", res.Steps)
	}
}

func TestPeakQueueBytesAccounted(t *testing.T) {
	opts := DefaultOptions()
	opts.TotalSteps = 2000
	res := Synthesize(hardSpec(t, 7), opts)
	// Every queued node costs at least nodeBytes, and the root carried a
	// materialized spec, so the high-water mark must be well above zero
	// and far below anything absurd for a 2000-step run.
	if res.PeakQueueBytes < nodeBytes {
		t.Errorf("PeakQueueBytes = %d, want ≥ %d", res.PeakQueueBytes, nodeBytes)
	}
	if res.PeakQueueBytes > 1<<30 {
		t.Errorf("PeakQueueBytes = %d looks wildly over-accounted", res.PeakQueueBytes)
	}
}

// TestRecoverInternalPanic feeds the search a structurally invalid Spec
// (more declared variables than output expansions). The expansion loop
// indexes out of range; the panic must come back as an error-carrying
// Result, not kill the process.
func TestRecoverInternalPanic(t *testing.T) {
	bad := pprm.NewSpec(2)
	bad.N = 3 // lie about the width: Out has only 2 entries
	res := SynthesizeContext(context.Background(), bad, DefaultOptions())
	if res.Err == nil {
		t.Fatal("invariant panic was not converted to Result.Err")
	}
	if res.StopReason != StopInternalError {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopInternalError)
	}
	if res.Found {
		t.Error("errored run claims Found")
	}
}

func TestRecoverPanicInPortfolio(t *testing.T) {
	bad := pprm.NewSpec(2)
	bad.N = 3
	res := SynthesizePortfolio(bad, DefaultOptions(), 2)
	if res.Found {
		t.Error("portfolio found a circuit on a broken spec")
	}
	if res.Err == nil {
		t.Error("portfolio swallowed the variants' internal errors")
	}
	if res.StopReason != StopInternalError {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopInternalError)
	}
}
