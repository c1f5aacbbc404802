// Command experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each subcommand reproduces one artifact; "all"
// runs the full suite with default sizes (scaled down from the paper's
// counts; raise -samples/-pervar for the full-size runs).
//
// A long sweep can be interrupted (Ctrl-C / SIGTERM): the in-flight
// synthesis is canceled, completed rows are rendered, and failed rows
// report the stop reason that ended them.
//
// Usage:
//
//	experiments table1 [-samples N] [-full]
//	experiments table2 [-samples N]
//	experiments table3 [-samples N]
//	experiments table4 [-time D] [-only name,name]
//	experiments table5|table6|table7 [-pervar N] [-checkpoint-dir D]
//	experiments examples
//	experiments fig5
//	experiments all [-out dir]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dispatch(ctx, os.Args[1], os.Args[2:])
}

func dispatch(ctx context.Context, cmd string, args []string) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		samples = fs.Int("samples", 0, "sample count (0 = subcommand default)")
		full    = fs.Bool("full", false, "table1: enumerate all 40320 functions")
		perVar  = fs.Int("pervar", 0, "tables 5-7: samples per variable count")
		seed    = fs.Uint64("seed", 2026, "workload seed")
		timeLim = fs.Duration("time", 60*time.Second, "table4: per-benchmark time limit")
		steps   = fs.Int("steps", 0, "deterministic per-function step budget override")
		only    = fs.String("only", "", "table4: comma-separated benchmark names")
		ckptDir = fs.String("checkpoint-dir", "", "tables 5-7: make the sweep interruptible — progress ledger + in-flight search checkpoint in this directory; rerun with the same flags to continue")

		progress     = fs.Bool("progress", false, "tables 5-7: live single-line progress display on stderr")
		metricsJSON  = fs.String("metrics-json", "", "tables 5-7: append periodic JSON-lines progress snapshots to this file")
		metricsAddr  = fs.String("metrics-addr", "", "tables 5-7: serve /debug/vars (expvar) and /debug/pprof on this host:port")
		metricsEvery = fs.Duration("metrics-interval", obs.DefaultInterval, "progress snapshot cadence")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	w := os.Stdout
	switch cmd {
	case "table1":
		n := *samples
		if *full {
			n = 0
		} else if n == 0 {
			n = 4000
		}
		fmt.Fprintf(w, "== Table I: all 3-variable reversible functions (NCT) ==\n")
		exp.Table1(ctx, exp.Table1Config{Samples: n, Seed: *seed, TotalSteps: *steps}).Write(w)

	case "table2":
		n := defaultInt(*samples, 1000)
		fmt.Fprintf(w, "== Table II: random 4-variable reversible functions (paper: 50000 samples) ==\n")
		cfg := exp.Table2Config(n, *seed)
		if *steps > 0 {
			cfg.TotalSteps = *steps
		}
		exp.RandomFunctions(ctx, cfg).Write(w)

	case "table3":
		n := defaultInt(*samples, 150)
		fmt.Fprintf(w, "== Table III: random 5-variable reversible functions (paper: 3000 samples) ==\n")
		cfg := exp.Table3Config(n, *seed)
		if *steps > 0 {
			cfg.TotalSteps = *steps
		}
		exp.RandomFunctions(ctx, cfg).Write(w)

	case "table4":
		fmt.Fprintf(w, "== Table IV: reversible logic benchmarks ==\n")
		cfg := exp.BenchmarkConfig{TimeLimit: *timeLim, TotalSteps: *steps}
		if *only != "" {
			cfg.Only = strings.Split(*only, ",")
		}
		exp.Benchmarks(ctx, cfg).Write(w)

	case "extended":
		fmt.Fprintf(w, "== Extended families (hwb#, rd#, #sym; not tabulated in the paper) ==\n")
		cfg := exp.BenchmarkConfig{TimeLimit: *timeLim, TotalSteps: *steps}
		exp.Extended(ctx, cfg).Write(w)

	case "table5", "table6", "table7":
		var cfg exp.ScalabilityConfig
		switch cmd {
		case "table5":
			cfg = exp.TableVConfig(defaultInt(*perVar, 50), *seed)
			fmt.Fprintf(w, "== Table V: random circuits, max 15 gates (paper: 500/var) ==\n")
		case "table6":
			cfg = exp.TableVIConfig(defaultInt(*perVar, 60), *seed)
			fmt.Fprintf(w, "== Table VI: random circuits, max 20 gates (paper: 1000/var) ==\n")
		default:
			cfg = exp.TableVIIConfig(defaultInt(*perVar, 60), *seed)
			fmt.Fprintf(w, "== Table VII: random circuits, max 25 gates (paper: 1000/var) ==\n")
		}
		if *steps > 0 {
			cfg.TotalSteps = *steps
		}
		cfg.CheckpointDir = *ckptDir
		pipeOpts := obs.PipelineOptions{
			Progress: *progress,
			JSONPath: *metricsJSON,
			Addr:     *metricsAddr,
			Interval: *metricsEvery,
		}
		var pipe *obs.Pipeline
		if pipeOpts.Enabled() {
			cfg.Observe = obs.NewRun(cmd)
			var err error
			pipe, err = obs.StartPipeline(cfg.Observe, pipeOpts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			if addr := pipe.Addr(); addr != "" {
				fmt.Fprintf(os.Stderr, "# metrics: http://%s/debug/vars and /debug/pprof\n", addr)
			}
			defer pipe.Stop()
		}
		res := exp.Scalability(ctx, cfg)
		pipe.Stop() // release the progress line before rendering the table
		res.Write(w)

	case "examples":
		fmt.Fprintf(w, "== Section V-C worked examples (Figs. 3(d), 7, 8) ==\n")
		exp.WriteExamples(w, exp.Examples(ctx, defaultInt(*steps, 400000)))

	case "fig5":
		fmt.Fprintf(w, "== Fig. 5: search-tree walkthrough on the Fig. 1 function ==\n")
		if err := exp.Fig5(w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}

	case "all":
		for _, sub := range []string{"fig5", "examples", "table1", "table2",
			"table3", "table4", "table5", "table6", "table7", "extended"} {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "experiments: interrupted, skipping remaining subcommands\n")
				break
			}
			fmt.Fprintf(w, "\n")
			dispatch(ctx, sub, nil)
		}

	default:
		usage()
	}
}

func defaultInt(v, dflt int) int {
	if v > 0 {
		return v
	}
	return dflt
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments <table1|table2|table3|table4|table5|table6|table7|examples|extended|fig5|all> [flags]`)
	os.Exit(2)
}
