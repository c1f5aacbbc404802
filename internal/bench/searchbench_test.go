package bench

import (
	"context"
	"testing"
)

// smallConfig keeps the harness fast enough for the regular test run; the
// checked-in BENCH_search.json is produced by cmd/benchjson with the
// defaults.
func smallConfig() SearchBenchConfig {
	return SearchBenchConfig{
		Seed:         1,
		Table1Sample: 40,
		Random4:      8,
		TotalSteps:   20000,
		SkipExamples: true,
	}
}

// TestSearchBenchInvariants runs the scaled-down harness and checks the
// claims the full BENCH_search.json is published under: dedup solves the
// same functions with equal-or-fewer total gates, strictly fewer
// expansions, a nonzero hit rate, and no table traffic when disabled.
func TestSearchBenchInvariants(t *testing.T) {
	report, err := RunSearchBench(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Workloads) != 2 {
		t.Fatalf("got %d workloads, want 2", len(report.Workloads))
	}
	for _, w := range report.Workloads {
		if w.Off.Solved != w.Off.Functions || w.On.Solved != w.On.Functions {
			t.Errorf("%s: solved %d/%d off, %d/%d on", w.Workload,
				w.Off.Solved, w.Off.Functions, w.On.Solved, w.On.Functions)
		}
		if w.On.TotalGates > w.Off.TotalGates {
			t.Errorf("%s: dedup worsened total gates: %d > %d", w.Workload,
				w.On.TotalGates, w.Off.TotalGates)
		}
		// Strict reduction is the acceptance bar on the Table-I suite;
		// budget-bound workloads (every run exhausting TotalSteps) can
		// only tie, never regress.
		if w.On.Expansions > w.Off.Expansions {
			t.Errorf("%s: dedup increased expansions: %d on vs %d off",
				w.Workload, w.On.Expansions, w.Off.Expansions)
		}
		if w.Workload == "table1-3var" && w.On.Expansions >= w.Off.Expansions {
			t.Errorf("table1-3var: dedup did not reduce expansions: %d on vs %d off",
				w.On.Expansions, w.Off.Expansions)
		}
		if w.On.DedupHitRate <= 0 {
			t.Errorf("%s: zero dedup hit rate", w.Workload)
		}
		if w.Off.DedupHits != 0 || w.Off.DedupMisses != 0 {
			t.Errorf("%s: dedup-off run reported table traffic", w.Workload)
		}
		t.Logf("%s: expansions %d → %d (−%.1f%%), hit rate %.2f",
			w.Workload, w.Off.Expansions, w.On.Expansions,
			100*w.ExpansionReduction, w.On.DedupHitRate)
	}
}

// TestSearchBenchDeterministic: identical configs give identical
// deterministic fields (expansions, gates, dedup totals) across runs.
func TestSearchBenchDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.Table1Sample = 20
	cfg.Random4 = 4
	a, err := RunSearchBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSearchBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Workloads {
		wa, wb := a.Workloads[i], b.Workloads[i]
		if wa.On.Expansions != wb.On.Expansions || wa.Off.Expansions != wb.Off.Expansions {
			t.Errorf("%s: expansions differ across runs", wa.Workload)
		}
		if wa.On.TotalGates != wb.On.TotalGates || wa.Off.TotalGates != wb.Off.TotalGates {
			t.Errorf("%s: gate totals differ across runs", wa.Workload)
		}
		if wa.On.DedupHits != wb.On.DedupHits {
			t.Errorf("%s: dedup hits differ across runs", wa.Workload)
		}
	}
}

// benchFunctions is the fixed per-iteration workload for the Go
// benchmarks below (also the CI smoke target: -bench=Search -benchtime=1x).
const benchFunctions = 25

func benchmarkSearch(b *testing.B, dedup bool) {
	fns := seededFunctions(1, 3, benchFunctions)
	opts := searchOpts(20000, dedup)
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
