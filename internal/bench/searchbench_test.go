package bench

import (
	"context"
	"strings"
	"testing"
)

// smallSearchConfig is the search preset scaled down for the regular test
// run; the checked-in BENCH_search.json is produced by cmd/benchjson with
// the full preset.
func smallSearchConfig() Config {
	cfg := SearchConfig()
	cfg.Table1Sample, cfg.Random4, cfg.TotalSteps, cfg.ExampleSteps = 40, 8, 20000, 0
	return cfg
}

// TestSearchBenchInvariants runs the scaled-down search preset and checks
// the claims the full BENCH_search.json is published under: dedup solves
// the same functions with equal-or-fewer total gates, strictly fewer
// expansions, a nonzero hit rate, and no table traffic when disabled.
func TestSearchBenchInvariants(t *testing.T) {
	report, err := Run(context.Background(), smallSearchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Workloads) != 2 {
		t.Fatalf("got %d workloads, want 2", len(report.Workloads))
	}
	for _, w := range report.Workloads {
		if len(w.Rows) != 2 {
			t.Fatalf("%s: %d rows, want 2 (dedup off, dedup on)", w.Name, len(w.Rows))
		}
		off, on := w.Rows[0], w.Rows[1]
		if off.Dedup || !on.Dedup {
			t.Fatalf("%s: rows are dedup %v, %v; want off, on", w.Name, off.Dedup, on.Dedup)
		}
		if off.Solved != off.Functions || on.Solved != on.Functions {
			t.Errorf("%s: solved %d/%d off, %d/%d on", w.Name,
				off.Solved, off.Functions, on.Solved, on.Functions)
		}
		if on.TotalGates > off.TotalGates {
			t.Errorf("%s: dedup worsened total gates: %d > %d", w.Name,
				on.TotalGates, off.TotalGates)
		}
		// Strict reduction is the acceptance bar on the Table-I suite;
		// budget-bound workloads (every run exhausting TotalSteps) can
		// only tie, never regress.
		if on.Expansions > off.Expansions {
			t.Errorf("%s: dedup increased expansions: %d on vs %d off",
				w.Name, on.Expansions, off.Expansions)
		}
		if w.Name == "table1-3var" && on.Expansions >= off.Expansions {
			t.Errorf("table1-3var: dedup did not reduce expansions: %d on vs %d off",
				on.Expansions, off.Expansions)
		}
		if on.DedupHitRate <= 0 {
			t.Errorf("%s: zero dedup hit rate", w.Name)
		}
		if off.DedupHits != 0 || off.DedupMisses != 0 {
			t.Errorf("%s: dedup-off run reported table traffic", w.Name)
		}
		t.Logf("%s: expansions %d → %d, hit rate %.2f",
			w.Name, off.Expansions, on.Expansions, on.DedupHitRate)
	}
}

// TestSearchBenchDeterministic: identical configs give identical
// deterministic fields (expansions, gates, dedup totals) across runs.
func TestSearchBenchDeterministic(t *testing.T) {
	cfg := smallSearchConfig()
	cfg.Table1Sample = 20
	cfg.Random4 = 4
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Workloads {
		for j := range a.Workloads[i].Rows {
			ra, rb := a.Workloads[i].Rows[j], b.Workloads[i].Rows[j]
			name := a.Workloads[i].Name
			if ra.Expansions != rb.Expansions {
				t.Errorf("%s (dedup %v): expansions differ across runs", name, ra.Dedup)
			}
			if ra.TotalGates != rb.TotalGates {
				t.Errorf("%s (dedup %v): gate totals differ across runs", name, ra.Dedup)
			}
			if ra.DedupHits != rb.DedupHits {
				t.Errorf("%s (dedup %v): dedup hits differ across runs", name, ra.Dedup)
			}
		}
	}
}

// TestParallelBenchSmoke runs a scaled-down parallel preset end to end:
// the report must carry the host metadata and every engine row, and every
// det-merge width must fingerprint identically. Wall-clock speedups are
// machine facts and are not asserted.
func TestParallelBenchSmoke(t *testing.T) {
	cfg := ParallelConfig()
	cfg.Table1Sample, cfg.Random4, cfg.TotalSteps = 20, 3, 8000
	report, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.CPUs < 1 || report.GOMAXPROCS < 1 || !strings.HasPrefix(report.GoVersion, "go") {
		t.Errorf("missing machine metadata: cpus=%d gomaxprocs=%d go=%q", report.CPUs, report.GOMAXPROCS, report.GoVersion)
	}
	if len(report.Workloads) != 2 {
		t.Fatalf("workloads = %d, want 2", len(report.Workloads))
	}
	for _, w := range report.Workloads {
		// sequential + one det-merge row per width.
		if len(w.Rows) != len(cfg.Engines) {
			t.Fatalf("%s: rows = %d, want %d", w.Name, len(w.Rows), len(cfg.Engines))
		}
		for _, r := range w.Rows {
			if r.Workers >= 1 && r.Trajectory != w.Rows[1].Trajectory {
				t.Errorf("%s: det-merge trajectories differ across worker counts", w.Name)
			}
			if r.Expansions <= 0 {
				t.Errorf("%s/%d workers: no expansions recorded", w.Name, r.Workers)
			}
			if r.Trajectory == "" {
				t.Errorf("%s/%d workers: missing trajectory fingerprint", w.Name, r.Workers)
			}
		}
		if w.Rows[0].Speedup != 1 {
			t.Errorf("%s: first row's speedup = %v, want 1", w.Name, w.Rows[0].Speedup)
		}
	}
}

// TestDetMergeDivergenceIsAnError: the harness refuses a workload whose
// det-merge rows disagree.
func TestDetMergeDivergenceIsAnError(t *testing.T) {
	cfg := ParallelConfig()
	cfg.Table1Sample, cfg.Random4, cfg.TotalSteps = 4, 1, 2000
	cfg.Engines = []Engine{{Dedup: true}, {Dedup: true, Workers: 1}, {Dedup: true, Workers: 2}}
	report, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("agreeing det-merge rows: %v", err)
	}
	w := report.Workloads[0]
	// The sequential row is another trajectory family; it is not compared.
	w.Rows[0].Trajectory = "0000000000000000"
	if err := checkDetMerge(w); err != nil {
		t.Fatalf("a sequential row's trajectory failed the det-merge check: %v", err)
	}
	w.Rows[2].Trajectory = "0000000000000000"
	err = checkDetMerge(w)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("checkDetMerge on diverging rows = %v, want a divergence error", err)
	}
}

// benchFunctions is the fixed per-iteration workload for the Go
// benchmarks below (also the CI smoke target: -bench=Search -benchtime=1x).
const benchFunctions = 25

func benchmarkSearch(b *testing.B, dedup bool) {
	fns := seededFunctions(1, 3, benchFunctions)
	opts := Engine{Dedup: dedup}.options(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := runWorkload(context.Background(), fns, opts)
		if err != nil {
			b.Fatal(err)
		}
		if m.Solved != len(fns) {
			b.Fatalf("solved %d/%d", m.Solved, len(fns))
		}
		b.ReportMetric(float64(m.Expansions), "expansions/op")
	}
}

func BenchmarkSearchDedupOff(b *testing.B) { benchmarkSearch(b, false) }
func BenchmarkSearchDedupOn(b *testing.B)  { benchmarkSearch(b, true) }
