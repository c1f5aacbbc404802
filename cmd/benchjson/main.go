// Command benchjson runs the benchmark-trajectory harness
// (internal/bench.Run) and writes its machine-readable report. Two presets
// of the one harness are checked in: BENCH_search.json (seeded,
// deterministic workloads with the transposition table off and on, plus
// the paper's fourteen worked examples) and, with -parallel,
// BENCH_parallel.json (the sequential search vs deterministic-merge rounds
// at several worker counts, whose trajectories must be bit-identical).
// Both record the host's cpus, GOMAXPROCS and Go version. See
// docs/PERFORMANCE.md for how to read the output.
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
// The size flags override the chosen preset's fields; 0 keeps the preset.
//
// With -check the harness re-runs the configuration recorded in FILE and
// exits 1 if any deterministic field differs: expansions, gates, nodes,
// dedup counters, example results or trajectory fingerprints. Wall-clock
// rates are printed, never compared. A change that keeps the search
// identical step for step must pass it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

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
		exampleSteps = fs.Int("examplesteps", 0, "per-example expansion budget (0 = default 150000, or no examples with -parallel)")
		skipExamples = fs.Bool("skip-examples", false, "skip the worked-examples comparison")
		parallel     = fs.Bool("parallel", false, "run the parallel preset instead (sequential vs det-merge widths)")
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
	cfg, file := bench.SearchConfig(), "BENCH_search.json"
	if *parallel {
		cfg, file = bench.ParallelConfig(), "BENCH_parallel.json"
	}
	if *out == "" {
		*out = file
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	for _, o := range []struct{ field, flag *int }{
		{&cfg.Table1Sample, table1}, {&cfg.Random4, random4},
		{&cfg.TotalSteps, steps}, {&cfg.ExampleSteps, exampleSteps},
	} {
		if *o.flag != 0 {
			*o.field = *o.flag
		}
	}
	if *skipExamples {
		cfg.ExampleSteps = 0
	}

	report, err := bench.Run(ctx, cfg)
	if err != nil {
		return runError(ctx, err, stderr)
	}
	if code := writeReport(report, *out, stdout, stderr); code != 0 {
		return code
	}
	printSummary(stderr, report)
	return 0
}

// writeReport writes a harness report as indented JSON to out ("-" for
// stdout) and returns the exit code: 1 on a write error, 0 on success.
func writeReport(report *bench.Report, out string, stdout, stderr io.Writer) int {
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

// printSummary writes the host line, one line per workload row (with its
// expansion change against the workload's first row) and one line per
// worked example.
func printSummary(w io.Writer, r *bench.Report) {
	fmt.Fprintf(w, "machine: %d cpus, GOMAXPROCS %d, %s (wall-clock figures are relative to this box)\n",
		r.CPUs, r.GOMAXPROCS, r.GoVersion)
	for _, wl := range r.Workloads {
		base := float64(wl.Rows[0].Expansions)
		for _, m := range wl.Rows {
			fmt.Fprintf(w, "%-12s dedup=%-5v w=%d  %8d exp (%+.1f%%)  hit rate %.2f  allocs/exp %.1f  %8.0f exp/s  speedup %.2fx  traj %s\n",
				wl.Name, m.Dedup, m.Workers, m.Expansions, 100*(float64(m.Expansions)/base-1), m.DedupHitRate,
				m.AllocsPerExpansion, m.NodesPerSec, m.Speedup, m.Trajectory)
		}
	}
	for _, e := range r.Examples {
		var gates, steps []string
		for _, run := range e.Runs {
			gates = append(gates, fmt.Sprintf("%2d", run.Gates))
			steps = append(steps, fmt.Sprintf("%7d", run.Steps))
		}
		fmt.Fprintf(w, "%-12s gates %s (paper %2d)  steps %s\n",
			e.Name, strings.Join(gates, " -> "), e.PaperGates, strings.Join(steps, " -> "))
	}
}
