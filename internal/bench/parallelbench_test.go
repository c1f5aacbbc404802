package bench

import (
	"context"
	"testing"
)

// TestParallelBenchSmoke runs a scaled-down parallel harness end to end:
// the report must carry every engine row and every det-merge width must
// fingerprint identically. Wall-clock speedups are machine facts and are
// not asserted.
func TestParallelBenchSmoke(t *testing.T) {
	cfg := ParallelBenchConfig{Table1Sample: 20, Random4: 3, TotalSteps: 8000}
	report, err := RunParallelBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.CPUs < 1 || report.GOMAXPROCS < 1 {
		t.Errorf("missing machine metadata: cpus=%d gomaxprocs=%d", report.CPUs, report.GOMAXPROCS)
	}
	if len(report.Workloads) != 2 {
		t.Fatalf("workloads = %d, want 2", len(report.Workloads))
	}
	for _, w := range report.Workloads {
		// sequential + one det-merge row per width.
		want := 1 + len(report.Config.Widths)
		if len(w.Rows) != want {
			t.Fatalf("%s: rows = %d, want %d", w.Workload, len(w.Rows), want)
		}
		if !w.DetMergeIdentical {
			t.Errorf("%s: det-merge trajectories differ across worker counts", w.Workload)
		}
		for _, r := range w.Rows {
			if r.Expansions <= 0 {
				t.Errorf("%s/%s-%d: no expansions recorded", w.Workload, r.Engine, r.Workers)
			}
			if r.Trajectory == "" {
				t.Errorf("%s/%s-%d: missing trajectory fingerprint", w.Workload, r.Engine, r.Workers)
			}
		}
	}
}
