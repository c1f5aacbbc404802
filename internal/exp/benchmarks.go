package exp

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
)

// BenchmarkConfig controls the Table IV reproduction.
type BenchmarkConfig struct {
	// TimeLimit per benchmark (the paper uses 60 s).
	TimeLimit time.Duration
	// TotalSteps optionally replaces the wall clock with a deterministic
	// budget (0 = wall clock only).
	TotalSteps int
	// ImproveSteps bounds post-solution improvement.
	ImproveSteps int
	// Rounds of iterative tightening per benchmark (0 = default of 4).
	Rounds int
	// Only restricts the run to the named benchmarks (empty = Table IV).
	Only []string
}

// BenchmarkRow is one synthesized benchmark.
type BenchmarkRow struct {
	Bench    *bench.Benchmark
	Found    bool
	Gates    int
	Cost     int
	Verified bool // simulation check ran and passed (wide specs skip it)
	Elapsed  time.Duration
	Steps    int
	// Stop records why the synthesis returned; for a failed row it names
	// the limit that ended the search.
	Stop core.StopReason
}

// BenchmarkResult is the reproduction of Table IV.
type BenchmarkResult struct {
	Rows []BenchmarkRow
}

// Benchmarks synthesizes the Table IV suite. Canceling ctx stops the
// suite after the in-flight benchmark; completed rows are kept.
func Benchmarks(ctx context.Context, cfg BenchmarkConfig) *BenchmarkResult {
	list := bench.TableIV()
	if len(cfg.Only) > 0 {
		list = list[:0:0]
		for _, name := range cfg.Only {
			b, err := bench.ByName(name)
			if err != nil {
				panic(err)
			}
			list = append(list, b)
		}
	}
	res := &BenchmarkResult{}
	for _, b := range list {
		if ctx.Err() != nil {
			break
		}
		res.Rows = append(res.Rows, runBenchmark(ctx, b, cfg))
	}
	return res
}

func runBenchmark(ctx context.Context, b *bench.Benchmark, cfg BenchmarkConfig) BenchmarkRow {
	row := BenchmarkRow{Bench: b, Gates: -1, Cost: -1}
	spec, err := b.PPRMSpec()
	if err != nil {
		panic(err)
	}
	opts := core.DefaultOptions()
	opts.TimeLimit = cfg.TimeLimit
	if opts.TimeLimit == 0 {
		opts.TimeLimit = 60 * time.Second
	}
	opts.TotalSteps = cfg.TotalSteps
	if opts.TotalSteps == 0 {
		opts.TotalSteps = 300000
	}
	opts.ImproveSteps = cfg.ImproveSteps
	if opts.ImproveSteps == 0 {
		opts.ImproveSteps = 30000
	}
	rounds := cfg.Rounds
	if rounds == 0 {
		rounds = 4
	}
	r := core.SynthesizePortfolioContext(ctx, spec, opts, rounds)
	row.Elapsed = r.Elapsed
	row.Steps = r.Steps
	row.Stop = r.StopReason
	if !r.Found {
		return row
	}
	row.Found = true
	row.Gates = r.Circuit.Len()
	row.Cost = r.Circuit.QuantumCost()
	// The engine's always-on gate already re-simulated the circuit through
	// the independent oracle; a gate failure comes back as Found=false with
	// a typed error instead of reaching this row at all.
	row.Verified = r.Verified
	return row
}

// Write renders Table IV with the paper's own results and the best
// published ones beside ours.
func (r *BenchmarkResult) Write(w io.Writer) {
	header := []string{"benchmark", "real", "garbage", "gates", "cost",
		"paper gates", "paper cost", "[13] gates", "[13] cost", "lib", "note"}
	var rows [][]string
	for _, row := range r.Rows {
		b := row.Bench
		lib := "GT"
		if b.NCT {
			lib = "NCT"
		}
		note := ""
		if b.StandIn {
			note = "stand-in spec"
		}
		if !row.Found {
			note = fmt.Sprintf("NOT FOUND (stop=%s)", row.Stop)
		} else if row.Verified {
			note += " ✓"
		}
		bestG, bestC := 0, 0
		if b.Best != nil {
			bestG, bestC = b.Best.Gates, b.Best.Cost
		}
		rows = append(rows, []string{
			b.Name, itoa(b.RealInputs), itoa(b.GarbageInputs),
			orDash(row.Gates, row.Found), orDash(row.Cost, row.Found),
			orDash(b.PaperGates, b.PaperGates > 0), orDash(b.PaperCost, b.PaperCost > 0),
			orDash(bestG, b.Best != nil), orDash(bestC, b.Best != nil),
			lib, note,
		})
	}
	writeTable(w, header, rows)
}

// ExampleRow is one of the Section V-C worked examples.
type ExampleRow struct {
	Name       string
	Circuit    string
	Gates      int
	PaperGates int
	Found      bool
	Verified   bool
}

// Examples synthesizes the paper's fourteen worked examples and returns
// the cascades, reproducing the circuits printed in Section V-C (and
// Figs. 7 and 8). Canceling ctx skips the remaining examples.
func Examples(ctx context.Context, totalSteps int) []ExampleRow {
	var rows []ExampleRow
	for _, b := range bench.Examples() {
		if ctx.Err() != nil {
			break
		}
		row := ExampleRow{Name: b.Name, PaperGates: b.PaperGates}
		spec, err := b.PPRMSpec()
		if err != nil {
			panic(err)
		}
		opts := core.DefaultOptions()
		opts.TotalSteps = totalSteps
		opts.ImproveSteps = totalSteps / 8
		opts.TimeLimit = 60 * time.Second
		r := core.SynthesizePortfolioContext(ctx, spec, opts, 4)
		if r.Found {
			row.Found = true
			row.Circuit = r.Circuit.String()
			row.Gates = r.Circuit.Len()
			row.Verified = r.Verified
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteExamples renders the worked examples; Examples 1 and 8 also get
// circuit drawings, reproducing the paper's Figs. 7 and 8.
func WriteExamples(w io.Writer, rows []ExampleRow) {
	for _, r := range rows {
		status := "FAILED"
		if r.Found {
			status = fmt.Sprintf("%d gates (paper: %d)", r.Gates, r.PaperGates)
			if r.Verified {
				status += " ✓verified"
			}
		}
		fmt.Fprintf(w, "%-12s %s\n", r.Name, status)
		if r.Found {
			fmt.Fprintf(w, "             %s\n", r.Circuit)
		}
		if !r.Found || (r.Name != "ex1" && r.Name != "fulladder") {
			continue
		}
		b, err := bench.ByName(r.Name)
		if err != nil {
			continue
		}
		if c, err := circuit.Parse(b.Wires, r.Circuit); err == nil {
			fig := "Fig. 7"
			if r.Name == "fulladder" {
				fig = "Fig. 8"
			}
			fmt.Fprintf(w, "  (%s)\n%s\n", fig, indent(c.Diagram(), "  "))
		}
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}

// Extended synthesizes the extra benchmark families (hwb#, rd#, #sym, …)
// the paper mentions but does not tabulate; see internal/bench/extended.go.
func Extended(ctx context.Context, cfg BenchmarkConfig) *BenchmarkResult {
	res := &BenchmarkResult{}
	for _, b := range bench.ExtendedFamilies() {
		if ctx.Err() != nil {
			break
		}
		res.Rows = append(res.Rows, runBenchmark(ctx, b, cfg))
	}
	return res
}
