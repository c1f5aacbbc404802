package core

import (
	"testing"
)

// The restart heuristic (Section IV-E) has two distinct exhaustion
// paths; each must be visible in Result.Restarts and Result.StopReason.

// TestRestartsExhaustedByFirstMoves lets restarts run until every first
// move from the root has been tried. The a'=b, b'=b spec has three
// admissible first moves, so exactly two restarts fire before the pool
// drains.
func TestRestartsExhaustedByFirstMoves(t *testing.T) {
	opts := DefaultOptions()
	opts.Dedup = false // keep the full three-move restart pool this test counts
	opts.MaxSteps = 5
	opts.TotalSteps = 1 << 20
	res := Synthesize(unsolvableSpec(t), opts)
	if res.Found {
		t.Fatal("synthesized a non-reversible function")
	}
	if res.Restarts != 2 {
		t.Errorf("Restarts = %d, want 2 (three first moves, root keeps one)", res.Restarts)
	}
	if res.StopReason != StopRestartsExhausted {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopRestartsExhausted)
	}
}

// TestRestartAfterQueueEmpty exercises the second restart trigger: the
// queue drains before stepsSinceRestart reaches MaxSteps, and the search
// reseeds from the next first move instead of giving up.
func TestRestartAfterQueueEmpty(t *testing.T) {
	opts := DefaultOptions()
	opts.Dedup = false      // keep the duplicate states that let the queue drain into a restart
	opts.MaxSteps = 1 << 20 // never triggers the step-count restart
	opts.TotalSteps = 1 << 20
	res := Synthesize(unsolvableSpec(t), opts)
	if res.Found {
		t.Fatal("synthesized a non-reversible function")
	}
	if res.Restarts == 0 {
		t.Error("queue drained but no restart fired")
	}
	if res.StopReason != StopRestartsExhausted {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopRestartsExhausted)
	}
}

// TestQueueExhaustedWithoutRestarts: with the heuristic disabled
// (MaxSteps = 0) a drained queue is a plain exhaustion, not a restart
// failure.
func TestQueueExhaustedWithoutRestarts(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSteps = 0
	opts.TotalSteps = 1 << 20
	res := Synthesize(unsolvableSpec(t), opts)
	if res.Found {
		t.Fatal("synthesized a non-reversible function")
	}
	if res.Restarts != 0 {
		t.Errorf("Restarts = %d with the heuristic disabled", res.Restarts)
	}
	if res.StopReason != StopQueueExhausted {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopQueueExhausted)
	}
}
