package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestObserveDoesNotChangeSearch is the tentpole's zero-overhead contract:
// attaching a Run must not change a single expansion. Same spec, same
// options, with and without Observe — the trajectories must be identical.
func TestObserveDoesNotChangeSearch(t *testing.T) {
	spec := hardSpec(t, 7)
	opts := DefaultOptions()
	opts.TotalSteps = 30000

	bare := SynthesizeContext(context.Background(), spec, opts)

	run := obs.NewRun("test")
	opts.Observe = run
	observed := SynthesizeContext(context.Background(), spec, opts)

	if bare.Steps != observed.Steps || bare.Nodes != observed.Nodes {
		t.Fatalf("observation changed the search: steps %d→%d, nodes %d→%d",
			bare.Steps, observed.Steps, bare.Nodes, observed.Nodes)
	}
	if bare.Found != observed.Found {
		t.Fatalf("observation changed the outcome: found %v→%v", bare.Found, observed.Found)
	}
	if bare.Found && bare.Circuit.String() != observed.Circuit.String() {
		t.Fatalf("observation changed the circuit:\n%s\n%s", bare.Circuit, observed.Circuit)
	}

	snap := run.Snapshot(time.Now())
	if snap.Steps != int64(observed.Steps) {
		t.Errorf("snapshot steps = %d, result reported %d", snap.Steps, observed.Steps)
	}
	if snap.Nodes != int64(observed.Nodes) {
		t.Errorf("snapshot nodes = %d, result reported %d", snap.Nodes, observed.Nodes)
	}
	if !snap.Done {
		t.Error("run not marked done after synthesis returned")
	}
	if snap.Stop != observed.StopReason.String() {
		t.Errorf("snapshot stop = %q, result stop = %q", snap.Stop, observed.StopReason)
	}
	if observed.Found {
		if snap.BestGates != observed.Circuit.Len() {
			t.Errorf("snapshot best gates = %d, circuit has %d", snap.BestGates, observed.Circuit.Len())
		}
		if snap.BestQuantumCost != observed.Circuit.QuantumCost() {
			t.Errorf("snapshot best cost = %d, circuit costs %d", snap.BestQuantumCost, observed.Circuit.QuantumCost())
		}
	}
	if probes := snap.DedupHits + snap.DedupMisses; probes != int64(observed.DedupHits+observed.DedupMisses) {
		t.Errorf("snapshot dedup probes = %d, result reported %d",
			probes, observed.DedupHits+observed.DedupMisses)
	}
}

// TestObservePortfolioChildren checks that each portfolio variant reports
// under its own child label and that the parent aggregates their work.
func TestObservePortfolioChildren(t *testing.T) {
	spec := hardSpec(t, 3)
	opts := DefaultOptions()
	opts.TotalSteps = 5000
	run := obs.NewRun("portfolio")
	opts.Observe = run

	res := SynthesizePortfolioContext(context.Background(), spec, opts, 2)

	children := run.ChildSnapshots(time.Now())
	if len(children) < 3 {
		t.Fatalf("portfolio produced %d child runs, want ≥ 3 (variants + optional tighten)", len(children))
	}
	want := map[string]bool{"variant0": true, "variant1": true, "variant2": true, "tighten": true}
	var sum int64
	for _, c := range children {
		if !want[c.Label] {
			t.Errorf("unexpected child label %q", c.Label)
		}
		sum += c.Steps
	}
	// The children observe at stride boundaries plus once on return, so
	// their counters match the merged Result exactly.
	if res.Steps != int(sum) {
		t.Errorf("result reports %d steps but children observed %d", res.Steps, sum)
	}
	if sum == 0 {
		t.Error("no child observed any steps")
	}
	agg := run.Snapshot(time.Now())
	if !agg.Aggregate {
		t.Error("parent snapshot not marked aggregate")
	}
	if agg.Steps != sum {
		t.Errorf("aggregate steps = %d, children sum to %d", agg.Steps, sum)
	}
}

// TestObserveCheckpointTelemetry checks that checkpoint writes surface in
// the run snapshot (count, bytes, and a fresh age).
func TestObserveCheckpointTelemetry(t *testing.T) {
	spec := hardSpec(t, 11)
	opts := DefaultOptions()
	opts.TotalSteps = 1000 // room for several ckptTimeStride cadence checks
	opts.Checkpoint = Checkpoint{
		Path:     t.TempDir() + "/ck.snap",
		Interval: time.Nanosecond, // every wall-clock cadence check
	}
	run := obs.NewRun("ckpt")
	opts.Observe = run
	SynthesizeContext(context.Background(), spec, opts)

	snap := run.Snapshot(time.Now())
	if snap.Checkpoints == 0 {
		t.Fatal("no checkpoints observed")
	}
	if snap.LastCheckpointBytes <= 0 {
		t.Errorf("last checkpoint bytes = %d, want > 0", snap.LastCheckpointBytes)
	}
	if snap.LastCheckpointAge < 0 {
		t.Errorf("last checkpoint age = %v, want ≥ 0", snap.LastCheckpointAge)
	}
}
