package bench

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/perm"
)

// This file is the parallel-search harness: it runs the seeded workloads
// of the search harness sequentially (one pop per round) and under
// deterministic-merge rounds at several worker counts, and reports the
// numbers checked in as BENCH_parallel.json. Two kinds of facts come out:
// determinism facts (every det-merge width must produce the bit-identical
// trajectory — machine-independent) and throughput facts (wall-clock
// speedups — meaningful only on the machine whose cpus/gomaxprocs metadata
// the report carries; a single-core runner honestly reports ~1.0).

// ParallelBenchConfig sizes the parallel harness. The zero value selects
// the defaults used for the checked-in BENCH_parallel.json.
type ParallelBenchConfig struct {
	// Seed drives the pseudo-random workloads (shared with the search
	// harness generator). Default 1.
	Seed uint64 `json:"seed"`
	// Table1Sample is the number of seeded 3-variable functions.
	// Default 100.
	Table1Sample int `json:"table1_sample"`
	// Random4 is the number of seeded 4-variable functions. Default 15.
	Random4 int `json:"random4"`
	// TotalSteps is the per-function expansion budget. Default 30000.
	TotalSteps int `json:"total_steps"`
	// Widths are the det-merge worker counts to compare. Default [1, 4, 8].
	Widths []int `json:"widths"`
}

func (c *ParallelBenchConfig) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Table1Sample == 0 {
		c.Table1Sample = 100
	}
	if c.Random4 == 0 {
		c.Random4 = 15
	}
	if c.TotalSteps == 0 {
		c.TotalSteps = 30000
	}
	if len(c.Widths) == 0 {
		c.Widths = []int{1, 4, 8}
	}
}

// EngineRow is one workload under one engine configuration.
type EngineRow struct {
	// Engine is "sequential" or "det-merge".
	Engine string `json:"engine"`
	// Workers is the configured width (0 for the sequential engine).
	Workers     int     `json:"workers"`
	Functions   int     `json:"functions"`
	Solved      int     `json:"solved"`
	TotalGates  int     `json:"total_gates"`
	Expansions  int64   `json:"expansions"`
	Seconds     float64 `json:"seconds"`
	NodesPerSec float64 `json:"nodes_per_sec"`
	// Speedup is this row's NodesPerSec over the workload's sequential
	// row (machine-dependent; ~1.0 on a single-core runner).
	Speedup float64 `json:"speedup"`
	// Trajectory fingerprints the per-function results (found flag,
	// circuit, steps, nodes). Rows with equal fingerprints took the
	// bit-identical search trajectory; every det-merge width must agree.
	Trajectory string `json:"trajectory"`
}

// ParallelWorkload compares the engines on one workload.
type ParallelWorkload struct {
	Workload string      `json:"workload"`
	Rows     []EngineRow `json:"rows"`
	// DetMergeIdentical reports whether every det-merge width produced
	// the same trajectory fingerprint. Anything but true is a bug.
	DetMergeIdentical bool `json:"det_merge_identical"`
}

// ParallelReport is the schema of BENCH_parallel.json.
type ParallelReport struct {
	Config ParallelBenchConfig `json:"config"`
	// CPUs and GOMAXPROCS are the honest context for every wall-clock
	// figure in the report: speedups measured with fewer cores than
	// workers mean "overhead only", not "the engine does not scale".
	CPUs       int                `json:"cpus"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Workloads  []ParallelWorkload `json:"workloads"`
}

// compareEngines runs one workload under every engine configuration.
func compareEngines(ctx context.Context, name string, fns []perm.Perm, cfg ParallelBenchConfig) (ParallelWorkload, error) {
	w := ParallelWorkload{Workload: name, DetMergeIdentical: true}

	add := func(opts core.Options, engine string) error {
		m, err := runWorkload(ctx, fns, opts)
		if err != nil {
			return fmt.Errorf("%s (%s, %d workers): %w", name, engine, opts.Workers, err)
		}
		w.Rows = append(w.Rows, EngineRow{
			Engine:      engine,
			Workers:     opts.Workers,
			Functions:   m.Functions,
			Solved:      m.Solved,
			TotalGates:  m.TotalGates,
			Expansions:  m.Expansions,
			Seconds:     m.Seconds,
			NodesPerSec: m.NodesPerSec,
			Trajectory:  m.Trajectory,
		})
		return nil
	}

	if err := add(searchOpts(cfg.TotalSteps, true), "sequential"); err != nil {
		return w, err
	}
	for _, width := range cfg.Widths {
		opts := searchOpts(cfg.TotalSteps, true)
		opts.Workers = width
		if err := add(opts, "det-merge"); err != nil {
			return w, err
		}
	}

	base := w.Rows[0].NodesPerSec
	var detFP string
	for i := range w.Rows {
		r := &w.Rows[i]
		if base > 0 {
			r.Speedup = r.NodesPerSec / base
		}
		if r.Engine == "det-merge" {
			if detFP == "" {
				detFP = r.Trajectory
			} else if r.Trajectory != detFP {
				w.DetMergeIdentical = false
			}
		}
	}
	return w, nil
}

// RunParallelBench executes the parallel harness over the seeded
// 3-variable and 4-variable workloads.
func RunParallelBench(ctx context.Context, cfg ParallelBenchConfig) (*ParallelReport, error) {
	cfg.fill()
	report := &ParallelReport{
		Config:     cfg,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, w := range seededWorkloads(cfg.Seed, cfg.Table1Sample, cfg.Random4) {
		cmp, err := compareEngines(ctx, w.name, w.fns, cfg)
		if err != nil {
			return nil, err
		}
		report.Workloads = append(report.Workloads, cmp)
	}
	return report, nil
}
