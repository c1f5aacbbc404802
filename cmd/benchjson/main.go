// Command benchjson runs the search benchmark-trajectory harness
// (internal/bench.RunSearchBench) and writes the machine-readable report
// consumed as BENCH_search.json: seeded, deterministic workloads with the
// transposition table off and on, plus the paper's fourteen worked
// examples. See docs/PERFORMANCE.md for how to read the output.
//
// Usage:
//
//	benchjson [-out BENCH_search.json] [-seed 1] [-table1 400]
//	          [-random4 60] [-steps 50000] [-examplesteps 150000]
//	          [-skip-examples]
//	benchjson -parallel [-out BENCH_parallel.json] [-seed 1]
//	          [-table1 100] [-random4 15] [-steps 30000]
//	benchjson -check FILE
//
// With -parallel the harness compares round strides instead of the
// transposition table: the sequential search (one pop per round) vs
// deterministic-merge rounds at several worker counts, whose trajectories
// must be bit-identical, writing BENCH_parallel.json.
//
// With -check the harness re-runs the configuration recorded in FILE (a
// BENCH_search.json or BENCH_parallel.json report) and exits 1 if any
// deterministic field differs: expansions, gates, nodes, dedup counters or
// trajectory fingerprints. Wall-clock rates are printed, never compared. A
// change that keeps the search identical step for step must pass it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out          = fs.String("out", "", "output file (\"-\" for stdout; default BENCH_search.json, or BENCH_parallel.json with -parallel)")
		seed         = fs.Uint64("seed", 0, "workload seed (0 = default 1)")
		table1       = fs.Int("table1", 0, "3-variable Table-I sample size (0 = default 400, or 100 with -parallel)")
		random4      = fs.Int("random4", 0, "4-variable random sample size (0 = default 60, or 15 with -parallel)")
		steps        = fs.Int("steps", 0, "per-function expansion budget (0 = default 50000, or 30000 with -parallel)")
		exampleSteps = fs.Int("examplesteps", 0, "per-example expansion budget (0 = default 150000)")
		skipExamples = fs.Bool("skip-examples", false, "skip the worked-examples comparison")
		parallel     = fs.Bool("parallel", false, "run the parallel harness instead (sequential vs det-merge widths)")
		check        = fs.String("check", "", "re-run the configuration recorded in this report and exit 1 if any deterministic field differs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	if *check != "" {
		return runCheck(ctx, *check, stdout, stderr)
	}
	if *parallel {
		return runParallel(ctx, bench.ParallelBenchConfig{
			Seed:         *seed,
			Table1Sample: *table1,
			Random4:      *random4,
			TotalSteps:   *steps,
		}, *out, stdout, stderr)
	}
	if *out == "" {
		*out = "BENCH_search.json"
	}

	cfg := bench.SearchBenchConfig{
		Seed:         *seed,
		Table1Sample: *table1,
		Random4:      *random4,
		TotalSteps:   *steps,
		ExampleSteps: *exampleSteps,
		SkipExamples: *skipExamples,
	}
	report, err := bench.RunSearchBench(ctx, cfg)
	if code := writeReport(ctx, report, err, *out, stdout, stderr); code != 0 {
		return code
	}
	for _, w := range report.Workloads {
		fmt.Fprintf(stderr, "%-12s  expansions %8d -> %8d (-%.1f%%)  hit rate %.2f  allocs/exp %.1f -> %.1f  nodes/s %.0f -> %.0f\n",
			w.Workload, w.Off.Expansions, w.On.Expansions, 100*w.ExpansionReduction,
			w.On.DedupHitRate, w.Off.AllocsPerExpansion, w.On.AllocsPerExpansion,
			w.Off.NodesPerSec, w.On.NodesPerSec)
	}
	for _, e := range report.Examples {
		fmt.Fprintf(stderr, "%-12s  gates %2d -> %2d (paper %2d)  steps %7d -> %7d\n",
			e.Name, e.GatesOff, e.GatesOn, e.PaperGates, e.StepsOff, e.StepsOn)
	}
	return 0
}

// runParallel executes the parallel-engine harness and writes its report.
func runParallel(ctx context.Context, cfg bench.ParallelBenchConfig, out string, stdout, stderr io.Writer) int {
	if out == "" {
		out = "BENCH_parallel.json"
	}
	report, err := bench.RunParallelBench(ctx, cfg)
	if code := writeReport(ctx, report, err, out, stdout, stderr); code != 0 {
		return code
	}
	fmt.Fprintf(stderr, "machine: %d cpus, GOMAXPROCS %d (speedups are relative to this box)\n",
		report.CPUs, report.GOMAXPROCS)
	for _, w := range report.Workloads {
		det := "det-merge IDENTICAL across widths"
		if !w.DetMergeIdentical {
			det = "det-merge DIVERGED across widths (BUG)"
		}
		fmt.Fprintf(stderr, "%s: %s\n", w.Workload, det)
		for _, r := range w.Rows {
			fmt.Fprintf(stderr, "  %-12s w=%d  %8d exp  %6.2fs  %8.0f exp/s  speedup %.2fx  traj %s\n",
				r.Engine, r.Workers, r.Expansions, r.Seconds, r.NodesPerSec, r.Speedup, r.Trajectory)
		}
	}
	return 0
}

// writeReport writes a harness report as indented JSON to out ("-" for
// stdout) and returns the exit code: 3 when the run was interrupted, 1 on
// any other harness or write error, 0 on success.
func writeReport(ctx context.Context, report any, runErr error, out string, stdout, stderr io.Writer) int {
	if runErr != nil {
		return runError(ctx, runErr, stderr)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	return 0
}
