package core

import (
	"strings"
	"testing"
	"time"
)

func TestClampBudgetDefaultsAndCuts(t *testing.T) {
	ceil := BudgetCeiling{
		MaxTime:   time.Minute,
		MaxSteps:  1000,
		MaxMemory: 64 << 20,
		MaxGates:  50,
	}

	o := DefaultOptions() // MaxMemory 768 MiB, everything else unbounded
	notes := o.ClampBudget(ceil)
	if o.TimeLimit != time.Minute {
		t.Errorf("TimeLimit = %v, want ceiling %v", o.TimeLimit, time.Minute)
	}
	if o.TotalSteps != 1000 {
		t.Errorf("TotalSteps = %d, want 1000", o.TotalSteps)
	}
	if o.MaxMemory != 64<<20 {
		t.Errorf("MaxMemory = %d, want %d", o.MaxMemory, int64(64<<20))
	}
	if o.MaxGates != 50 {
		t.Errorf("MaxGates = %d, want 50", o.MaxGates)
	}
	if len(notes) != 4 {
		t.Errorf("notes = %q, want 4 entries", notes)
	}
	joined := strings.Join(notes, "; ")
	if !strings.Contains(joined, "memory clamped") {
		t.Errorf("notes %q missing memory clamp", joined)
	}

	// Budgets already under the ceiling are untouched, and produce no notes.
	o = Options{TimeLimit: time.Second, TotalSteps: 10, MaxMemory: 1 << 20, MaxGates: 5}
	if notes := o.ClampBudget(ceil); len(notes) != 0 {
		t.Errorf("under-ceiling clamp produced notes %q", notes)
	}
	if o.TimeLimit != time.Second || o.TotalSteps != 10 || o.MaxMemory != 1<<20 || o.MaxGates != 5 {
		t.Errorf("under-ceiling budgets changed: %+v", o)
	}

	// A zero ceiling leaves everything alone.
	o = Options{TimeLimit: time.Hour, TotalSteps: 1 << 30}
	if notes := o.ClampBudget(BudgetCeiling{}); len(notes) != 0 {
		t.Errorf("zero ceiling produced notes %q", notes)
	}
	if o.TimeLimit != time.Hour || o.TotalSteps != 1<<30 {
		t.Errorf("zero ceiling changed budgets: %+v", o)
	}
}

func TestClampBudgetKeepsFingerprintWhenMemoryUnchanged(t *testing.T) {
	// Clamping only stop-budgets (time, steps) must not change the
	// checkpoint compatibility fingerprint.
	o := DefaultOptions()
	before := OptionsFingerprint(&o)
	o.ClampBudget(BudgetCeiling{MaxTime: time.Second, MaxSteps: 100})
	if after := OptionsFingerprint(&o); after != before {
		t.Errorf("fingerprint changed %x -> %x after time/step clamp", before, after)
	}
}

func TestStopReasonResumable(t *testing.T) {
	resumable := map[StopReason]bool{
		StopCanceled:    true,
		StopDeadline:    true,
		StopStepLimit:   true,
		StopMemoryLimit: true,
	}
	all := []StopReason{StopNone, StopSolved, StopQueueExhausted, StopDeadline,
		StopCanceled, StopStepLimit, StopMemoryLimit, StopRestartsExhausted, StopInternalError, StopVerifyFailed}
	for _, r := range all {
		if got := r.Resumable(); got != resumable[r] {
			t.Errorf("%v.Resumable() = %v, want %v", r, got, resumable[r])
		}
	}
}
