package bench

import (
	"context"
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
// deterministic synthesis workloads with the transposition table off and
// on, and reports the search-performance numbers that are checked in as
// BENCH_search.json so every future change has a baseline to compare
// against. docs/PERFORMANCE.md explains how to run it and how to read the
// output.

// SearchBenchConfig sizes the harness workloads. The zero value selects
// the defaults used for the checked-in BENCH_search.json.
type SearchBenchConfig struct {
	// Seed drives every pseudo-random workload; identical seeds give
	// bit-identical workloads (and, with step-bounded searches,
	// machine-independent expansion counts). Default 1.
	Seed uint64 `json:"seed"`
	// Table1Sample is the number of seeded 3-variable functions in the
	// Table-I workload (the paper's Table I averages over all 8! = 40320
	// of them; the harness samples). Default 400.
	Table1Sample int `json:"table1_sample"`
	// Random4 is the number of seeded 4-variable functions. Default 60.
	Random4 int `json:"random4"`
	// TotalSteps is the per-function expansion budget for the random
	// workloads. Default 50000.
	TotalSteps int `json:"total_steps"`
	// ExampleSteps is the per-variant expansion budget for the paper's
	// fourteen worked examples. Default 150000.
	ExampleSteps int `json:"example_steps"`
	// SkipExamples drops the (slower) worked-examples comparison.
	SkipExamples bool `json:"skip_examples,omitempty"`
}

func (c *SearchBenchConfig) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Table1Sample == 0 {
		c.Table1Sample = 400
	}
	if c.Random4 == 0 {
		c.Random4 = 60
	}
	if c.TotalSteps == 0 {
		c.TotalSteps = 50000
	}
	if c.ExampleSteps == 0 {
		c.ExampleSteps = 150000
	}
}

// WorkloadMetrics aggregates one workload under one configuration.
// Expansion counts, gate counts, and dedup totals are deterministic for a
// given seed; the wall-clock rate and allocation figures depend on the
// machine and are meaningful only relative to the paired run.
type WorkloadMetrics struct {
	Dedup      bool `json:"dedup"`
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

// WorkloadComparison pairs the dedup-off and dedup-on runs of a workload.
type WorkloadComparison struct {
	Workload string          `json:"workload"`
	Off      WorkloadMetrics `json:"off"`
	On       WorkloadMetrics `json:"on"`
	// ExpansionReduction is 1 − on.Expansions/off.Expansions: the fraction
	// of node expansions the transposition table eliminated.
	ExpansionReduction float64 `json:"expansion_reduction"`
	// Speedup is on.NodesPerSec / off.NodesPerSec (machine-dependent).
	Speedup float64 `json:"speedup"`
}

// ExampleComparison is one of the paper's worked examples, synthesized
// with the transposition table off and on. GatesOn must never exceed
// GatesOff — dedup prunes only re-derived states, so it cannot force a
// longer circuit.
type ExampleComparison struct {
	Name       string  `json:"name"`
	PaperGates int     `json:"paper_gates"`
	GatesOff   int     `json:"gates_off"`
	GatesOn    int     `json:"gates_on"`
	StepsOff   int     `json:"steps_off"`
	StepsOn    int     `json:"steps_on"`
	HitRate    float64 `json:"dedup_hit_rate"`
}

// SearchReport is the full harness output (the schema of
// BENCH_search.json).
type SearchReport struct {
	Config    SearchBenchConfig    `json:"config"`
	Workloads []WorkloadComparison `json:"workloads"`
	Examples  []ExampleComparison  `json:"examples,omitempty"`
}

// searchOpts is the harness's synthesis configuration: the repository
// defaults with a deterministic step budget instead of a wall clock.
func searchOpts(totalSteps int, dedup bool) core.Options {
	opts := core.DefaultOptions()
	opts.TotalSteps = totalSteps
	opts.Dedup = dedup
	return opts
}

// runWorkload synthesizes every function in the workload under opts and
// aggregates the metrics. Found circuits are verified by simulation; a
// failure is returned (it would mean a search bug, not a slow machine).
// Results are folded after the timed, allocation-counted loop, so the
// trajectory fingerprint costs the measurement nothing.
func runWorkload(ctx context.Context, fns []perm.Perm, opts core.Options) (WorkloadMetrics, error) {
	m := WorkloadMetrics{Dedup: opts.Dedup, Functions: len(fns)}
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
	if probes := m.DedupHits + m.DedupMisses; probes > 0 {
		m.DedupHitRate = float64(m.DedupHits) / float64(probes)
	}
	m.Trajectory = fmt.Sprintf("%016x", h.Sum64())
	return m, nil
}

// compareWorkload runs one workload dedup-off then dedup-on.
func compareWorkload(ctx context.Context, name string, fns []perm.Perm, totalSteps int) (WorkloadComparison, error) {
	c := WorkloadComparison{Workload: name}
	var err error
	if c.Off, err = runWorkload(ctx, fns, searchOpts(totalSteps, false)); err != nil {
		return c, fmt.Errorf("%s (dedup off): %w", name, err)
	}
	if c.On, err = runWorkload(ctx, fns, searchOpts(totalSteps, true)); err != nil {
		return c, fmt.Errorf("%s (dedup on): %w", name, err)
	}
	if c.Off.Expansions > 0 {
		c.ExpansionReduction = 1 - float64(c.On.Expansions)/float64(c.Off.Expansions)
	}
	if c.Off.NodesPerSec > 0 {
		c.Speedup = c.On.NodesPerSec / c.Off.NodesPerSec
	}
	return c, nil
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

// workload is one named, seeded list of functions.
type workload struct {
	name string
	fns  []perm.Perm
}

// seededWorkloads is the workload list both harnesses run: a seeded
// Table-I-style 3-variable sample and a seeded 4-variable random sample.
func seededWorkloads(seed uint64, table1, random4 int) []workload {
	return []workload{
		{"table1-3var", seededFunctions(seed, 3, table1)},
		{"random-4var", seededFunctions(seed, 4, random4)},
	}
}

// RunSearchBench executes the full harness: the seeded Table-I-style
// 3-variable sample, a seeded 4-variable random workload, and (unless
// skipped) the paper's fourteen worked examples — each with the
// transposition table off and on.
func RunSearchBench(ctx context.Context, cfg SearchBenchConfig) (*SearchReport, error) {
	cfg.fill()
	report := &SearchReport{Config: cfg}

	for _, w := range seededWorkloads(cfg.Seed, cfg.Table1Sample, cfg.Random4) {
		cmp, err := compareWorkload(ctx, w.name, w.fns, cfg.TotalSteps)
		if err != nil {
			return nil, err
		}
		report.Workloads = append(report.Workloads, cmp)
	}

	if !cfg.SkipExamples {
		examples, err := runExamples(ctx, cfg.ExampleSteps)
		if err != nil {
			return nil, err
		}
		report.Examples = examples
	}
	return report, nil
}

// examplePaperGates holds the gate counts of the circuits the paper
// prints for Examples 1–14 (Section V-C) — the same reference the exp
// driver reports against.
var examplePaperGates = map[string]int{
	"ex1": 4, "shiftright3": 3, "fredkin3": 3, "swap3": 6, "swap4": 7,
	"shiftleft3": 3, "shiftleft4": 4, "fulladder": 4, "rd53": 13,
	"majority5": 16, "decod24": 11, "5one013": 19, "alu": 18,
	"shift10": 27,
}

// runExamples synthesizes the Section V-C worked examples with dedup off
// and on, using the same portfolio-plus-tightening driver as the exp
// examples reproduction (some examples — rd53 among them — need the
// portfolio's priority diversity) so the gate-count comparison isolates
// the transposition table.
func runExamples(ctx context.Context, totalSteps int) ([]ExampleComparison, error) {
	var out []ExampleComparison
	for _, b := range Examples() {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		spec, err := b.PPRMSpec()
		if err != nil {
			return nil, fmt.Errorf("example %s: %w", b.Name, err)
		}
		row := ExampleComparison{Name: b.Name, PaperGates: examplePaperGates[b.Name]}

		for _, dedup := range []bool{false, true} {
			opts := searchOpts(totalSteps, dedup)
			opts.ImproveSteps = totalSteps / 8
			r := core.SynthesizePortfolioContext(ctx, spec, opts, 4)
			if r.Err != nil {
				return nil, fmt.Errorf("example %s: %w", b.Name, r.Err)
			}
			if !r.Found {
				return nil, fmt.Errorf("example %s (dedup=%v): not solved (stop=%s)", b.Name, dedup, r.StopReason)
			}
			if b.Spec != nil && b.Wires <= 20 {
				if err := verify.Circuit(verify.StageClient, r.Circuit, b.Spec); err != nil {
					return nil, fmt.Errorf("example %s: %w", b.Name, err)
				}
			}
			if dedup {
				row.GatesOn = r.Circuit.Len()
				row.StepsOn = r.Steps
				if probes := r.DedupHits + r.DedupMisses; probes > 0 {
					row.HitRate = float64(r.DedupHits) / float64(probes)
				}
			} else {
				row.GatesOff = r.Circuit.Len()
				row.StepsOff = r.Steps
			}
		}
		out = append(out, row)
	}
	return out, nil
}
