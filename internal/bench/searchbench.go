package bench

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
	"repro/internal/verify"
)

// This file is the benchmark-trajectory harness: it runs seeded,
// deterministic synthesis workloads under a list of engine configurations
// and reports the search-performance numbers checked in as
// BENCH_search.json (transposition table off vs on) and
// BENCH_parallel.json (sequential vs det-merge widths), so every future
// change has a baseline to compare against. docs/PERFORMANCE.md explains
// how to run it and how to read the output.

// Engine is one search configuration the harness runs every workload
// under.
type Engine struct {
	// Dedup enables the transposition table.
	Dedup bool `json:"dedup"`
	// Workers selects the round stride: 0 is the sequential search, N ≥ 1
	// det-merge rounds generated by N workers.
	Workers int `json:"workers"`
}

// options is the harness's synthesis configuration for e: the repository
// defaults with a deterministic step budget instead of a wall clock.
func (e Engine) options(totalSteps int) core.Options {
	opts := core.DefaultOptions()
	opts.TotalSteps = totalSteps
	opts.Dedup = e.Dedup
	opts.Workers = e.Workers
	return opts
}

// Config sizes the harness workloads and lists the engines to compare.
// SearchConfig and ParallelConfig are the presets of the checked-in
// reports.
type Config struct {
	// Seed drives every pseudo-random workload; identical seeds give
	// bit-identical workloads (and, with step-bounded searches,
	// machine-independent expansion counts).
	Seed uint64 `json:"seed"`
	// Table1Sample is the number of seeded 3-variable functions in the
	// Table-I workload (the paper's Table I averages over all 8! = 40320
	// of them; the harness samples).
	Table1Sample int `json:"table1_sample"`
	// Random4 is the number of seeded 4-variable functions.
	Random4 int `json:"random4"`
	// TotalSteps is the per-function expansion budget for the random
	// workloads.
	TotalSteps int `json:"total_steps"`
	// ExampleSteps is the per-run expansion budget for the paper's
	// fourteen worked examples; 0 skips them.
	ExampleSteps int `json:"example_steps"`
	// Engines are the configurations every workload runs under, in row
	// order; speedups are relative to the first. Det-merge engines
	// (Workers ≥ 1) must differ only in Workers: Run checks that they
	// all take one trajectory.
	Engines []Engine `json:"engines"`
}

// SearchConfig is the preset of BENCH_search.json: the transposition
// table off and on, both sequential, plus the worked examples.
func SearchConfig() Config {
	return Config{Seed: 1, Table1Sample: 400, Random4: 60, TotalSteps: 50000, ExampleSteps: 150000,
		Engines: []Engine{{Dedup: false}, {Dedup: true}}}
}

// ParallelConfig is the preset of BENCH_parallel.json: the sequential
// search and det-merge rounds at 1, 4 and 8 workers, all with the table
// on; no worked examples.
func ParallelConfig() Config {
	return Config{Seed: 1, Table1Sample: 100, Random4: 15, TotalSteps: 30000,
		Engines: []Engine{{Dedup: true}, {Dedup: true, Workers: 1}, {Dedup: true, Workers: 4}, {Dedup: true, Workers: 8}}}
}

// WorkloadMetrics aggregates one workload under one engine. Expansion
// counts, gate counts, and dedup totals are deterministic for a given
// seed; the wall-clock rate and allocation figures depend on the machine
// and are meaningful only relative to the other rows of the same run.
type WorkloadMetrics struct {
	Dedup      bool `json:"dedup"`
	Workers    int  `json:"workers"`
	Functions  int  `json:"functions"`
	Solved     int  `json:"solved"`
	TotalGates int  `json:"total_gates"`
	// Expansions is the summed Result.Steps (priority-queue pops).
	Expansions int64 `json:"expansions"`
	// NodesCreated is the summed Result.Nodes.
	NodesCreated   int64   `json:"nodes_created"`
	DedupHits      int64   `json:"dedup_hits"`
	DedupMisses    int64   `json:"dedup_misses"`
	DedupEvictions int64   `json:"dedup_evictions"`
	DedupHitRate   float64 `json:"dedup_hit_rate"`
	Seconds        float64 `json:"seconds"`
	// NodesPerSec is expansions per wall-clock second (machine-dependent).
	NodesPerSec float64 `json:"nodes_per_sec"`
	// Speedup is NodesPerSec over the workload's first row
	// (machine-dependent; read it with the report's cpus/gomaxprocs).
	Speedup float64 `json:"speedup"`
	// AllocsPerExpansion and BytesPerExpansion are heap-allocation deltas
	// (runtime.MemStats) divided by expansions — the allocation-diet
	// trajectory metric.
	AllocsPerExpansion float64 `json:"allocs_per_expansion"`
	BytesPerExpansion  float64 `json:"bytes_per_expansion"`
	// Trajectory fingerprints the per-function results (found flag,
	// circuit, steps, nodes): runs with equal fingerprints took the
	// bit-identical search trajectory.
	Trajectory string `json:"trajectory"`
}

// Workload is one workload with one row per engine.
type Workload struct {
	Name string            `json:"name"`
	Rows []WorkloadMetrics `json:"rows"`
}

// ExampleRun is one worked example under one engine.
type ExampleRun struct {
	Gates   int     `json:"gates"`
	Steps   int     `json:"steps"`
	HitRate float64 `json:"dedup_hit_rate"`
}

// Example is one of the paper's worked examples with one run per engine.
// With engines that differ only in Dedup, the dedup-on run must never use
// more gates — dedup prunes only re-derived states, so it cannot force a
// longer circuit.
type Example struct {
	Name       string       `json:"name"`
	PaperGates int          `json:"paper_gates"`
	Runs       []ExampleRun `json:"runs"`
}

// Report is the full harness output (the schema of both BENCH_search.json
// and BENCH_parallel.json). CPUs, GOMAXPROCS and GoVersion are the context
// every wall-clock figure needs: speedups measured with fewer cores than
// workers mean "overhead only", not "the engine does not scale".
type Report struct {
	Config     Config     `json:"config"`
	CPUs       int        `json:"cpus"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	Workloads  []Workload `json:"workloads"`
	Examples   []Example  `json:"examples,omitempty"`
}

// runWorkload synthesizes every function in the workload under opts and
// aggregates the metrics. Found circuits are verified by simulation; a
// failure is returned (it would mean a search bug, not a slow machine).
// Results are folded after the timed, allocation-counted loop, so the
// trajectory fingerprint costs the measurement nothing.
func runWorkload(ctx context.Context, fns []perm.Perm, opts core.Options) (WorkloadMetrics, error) {
	m := WorkloadMetrics{Dedup: opts.Dedup, Workers: opts.Workers, Functions: len(fns)}
	results := make([]core.Result, len(fns))
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i, p := range fns {
		if ctx.Err() != nil {
			return m, ctx.Err()
		}
		spec, err := pprm.FromPerm(p)
		if err != nil {
			return m, err
		}
		r := &results[i]
		*r = core.SynthesizeContext(ctx, spec, opts)
		if r.Err != nil {
			return m, r.Err
		}
		if r.Found {
			if err := verify.Circuit(verify.StageClient, r.Circuit, p); err != nil {
				return m, err
			}
		}
	}
	m.Seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	h := fnv.New64a()
	for i := range results {
		r := &results[i]
		m.Expansions += int64(r.Steps)
		m.NodesCreated += int64(r.Nodes)
		m.DedupHits += r.DedupHits
		m.DedupMisses += r.DedupMisses
		m.DedupEvictions += r.DedupEvictions
		gates := "<none>"
		if r.Found {
			m.Solved++
			m.TotalGates += r.Circuit.Len()
			gates = r.Circuit.String()
		}
		fmt.Fprintf(h, "%v|%s|%d|%d;", r.Found, gates, r.Steps, r.Nodes)
	}
	if m.Expansions > 0 {
		m.AllocsPerExpansion = float64(ms1.Mallocs-ms0.Mallocs) / float64(m.Expansions)
		m.BytesPerExpansion = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(m.Expansions)
		m.NodesPerSec = float64(m.Expansions) / m.Seconds
	}
	m.DedupHitRate = hitRate(m.DedupHits, m.DedupMisses)
	m.Trajectory = fmt.Sprintf("%016x", h.Sum64())
	return m, nil
}

func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// checkDetMerge returns an error when two det-merge rows (Workers ≥ 1) of
// a workload took different trajectories: the worker count must never
// change a det-merge search.
func checkDetMerge(w Workload) error {
	var first *WorkloadMetrics
	for i := range w.Rows {
		r := &w.Rows[i]
		if r.Workers < 1 {
			continue
		}
		if first == nil {
			first = r
		} else if r.Trajectory != first.Trajectory {
			return fmt.Errorf("%s: det-merge diverged across worker counts: %d workers took trajectory %s, %d workers %s",
				w.Name, first.Workers, first.Trajectory, r.Workers, r.Trajectory)
		}
	}
	return nil
}

// seededFunctions draws n random v-variable reversible functions from the
// deterministic generator.
func seededFunctions(seed uint64, v, n int) []perm.Perm {
	src := rng.New(seed)
	fns := make([]perm.Perm, n)
	for i := range fns {
		fns[i] = perm.Random(v, src)
	}
	return fns
}

// Run executes the harness: a seeded Table-I-style 3-variable sample and a
// seeded 4-variable random sample under every engine, then (when
// ExampleSteps > 0) the paper's fourteen worked examples under every
// engine.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Engines) == 0 {
		return nil, errors.New("bench: the config lists no engines")
	}
	report := &Report{
		Config:     cfg,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	for _, wl := range []struct {
		name string
		fns  []perm.Perm
	}{
		{"table1-3var", seededFunctions(cfg.Seed, 3, cfg.Table1Sample)},
		{"random-4var", seededFunctions(cfg.Seed, 4, cfg.Random4)},
	} {
		w := Workload{Name: wl.name}
		for _, e := range cfg.Engines {
			m, err := runWorkload(ctx, wl.fns, e.options(cfg.TotalSteps))
			if err != nil {
				return nil, fmt.Errorf("%s (dedup %v, %d workers): %w", wl.name, e.Dedup, e.Workers, err)
			}
			w.Rows = append(w.Rows, m)
		}
		for i := range w.Rows {
			if base := w.Rows[0].NodesPerSec; base > 0 {
				w.Rows[i].Speedup = w.Rows[i].NodesPerSec / base
			}
		}
		if err := checkDetMerge(w); err != nil {
			return nil, err
		}
		report.Workloads = append(report.Workloads, w)
	}
	if cfg.ExampleSteps > 0 {
		examples, err := runExamples(ctx, cfg)
		if err != nil {
			return nil, err
		}
		report.Examples = examples
	}
	return report, nil
}

// runExamples synthesizes the Section V-C worked examples under every
// engine, using the same portfolio-plus-tightening driver as the exp
// examples reproduction (some examples — rd53 among them — need the
// portfolio's priority diversity) so the gate-count comparison isolates
// the engine settings.
func runExamples(ctx context.Context, cfg Config) ([]Example, error) {
	var out []Example
	for _, b := range Examples() {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		spec, err := b.PPRMSpec()
		if err != nil {
			return nil, fmt.Errorf("example %s: %w", b.Name, err)
		}
		row := Example{Name: b.Name, PaperGates: b.PaperGates}
		for _, e := range cfg.Engines {
			opts := e.options(cfg.ExampleSteps)
			opts.ImproveSteps = cfg.ExampleSteps / 8
			r := core.SynthesizePortfolioContext(ctx, spec, opts, 4)
			if r.Err != nil {
				return nil, fmt.Errorf("example %s: %w", b.Name, r.Err)
			}
			if !r.Found {
				return nil, fmt.Errorf("example %s (dedup %v, %d workers): not solved (stop=%s)", b.Name, e.Dedup, e.Workers, r.StopReason)
			}
			if b.Spec != nil && b.Wires <= 20 {
				if err := verify.Circuit(verify.StageClient, r.Circuit, b.Spec); err != nil {
					return nil, fmt.Errorf("example %s: %w", b.Name, err)
				}
			}
			row.Runs = append(row.Runs, ExampleRun{Gates: r.Circuit.Len(), Steps: r.Steps, HitRate: hitRate(r.DedupHits, r.DedupMisses)})
		}
		out = append(out, row)
	}
	return out, nil
}
