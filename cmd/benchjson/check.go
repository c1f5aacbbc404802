package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

// runCheck implements -check FILE: it re-runs the configuration recorded in
// a BENCH_search.json or BENCH_parallel.json report and compares every
// deterministic field — expansions, gates, nodes, dedup counters and
// trajectory fingerprints — with the recorded one. Wall-clock figures are
// printed for information and never compared. The exit code is 0 when
// nothing moved, 1 on any difference or error, 3 when interrupted.
func runCheck(ctx context.Context, file string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	// Only the parallel harness records det-merge widths.
	var probe struct {
		Config struct {
			Widths []int `json:"widths"`
		} `json:"config"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		fmt.Fprintf(stderr, "benchjson: %s: %v\n", file, err)
		return 1
	}
	var diffs []string
	if probe.Config.Widths != nil {
		var old bench.ParallelReport
		if err := json.Unmarshal(data, &old); err != nil {
			fmt.Fprintf(stderr, "benchjson: %s: %v\n", file, err)
			return 1
		}
		cur, err := bench.RunParallelBench(ctx, old.Config)
		if err != nil {
			return runError(ctx, err, stderr)
		}
		diffs = parallelDiffs(&old, cur, stdout)
	} else {
		var old bench.SearchReport
		if err := json.Unmarshal(data, &old); err != nil {
			fmt.Fprintf(stderr, "benchjson: %s: %v\n", file, err)
			return 1
		}
		cur, err := bench.RunSearchBench(ctx, old.Config)
		if err != nil {
			return runError(ctx, err, stderr)
		}
		diffs = searchDiffs(&old, cur, stdout)
	}
	for _, d := range diffs {
		fmt.Fprintf(stderr, "benchjson: %s: %s\n", file, d)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(stderr, "benchjson: %s: %d deterministic records differ\n", file, len(diffs))
		return 1
	}
	fmt.Fprintf(stdout, "%s: every deterministic field matches\n", file)
	return 0
}

func runError(ctx context.Context, err error, stderr io.Writer) int {
	fmt.Fprintf(stderr, "benchjson: %v\n", err)
	if ctx.Err() != nil {
		return 3
	}
	return 1
}

// searchCounts is the deterministic part of a workload run.
func searchCounts(m bench.WorkloadMetrics) bench.WorkloadMetrics {
	m.Seconds, m.NodesPerSec, m.AllocsPerExpansion, m.BytesPerExpansion = 0, 0, 0, 0
	return m
}

// searchDiffs lists the deterministic differences between a recorded and a
// fresh search report and prints the wall-clock rates side by side.
func searchDiffs(old, cur *bench.SearchReport, stdout io.Writer) []string {
	var diffs []string
	if len(old.Workloads) != len(cur.Workloads) || len(old.Examples) != len(cur.Examples) {
		return []string{fmt.Sprintf("%d workloads and %d examples recorded, %d and %d now",
			len(old.Workloads), len(old.Examples), len(cur.Workloads), len(cur.Examples))}
	}
	for i := range old.Workloads {
		o, c := &old.Workloads[i], &cur.Workloads[i]
		for _, side := range []struct {
			name     string
			old, cur bench.WorkloadMetrics
		}{{"dedup off", o.Off, c.Off}, {"dedup on", o.On, c.On}} {
			if a, b := searchCounts(side.old), searchCounts(side.cur); o.Workload != c.Workload || a != b {
				diffs = append(diffs, fmt.Sprintf("%s %s: recorded %+v, now %s %+v", o.Workload, side.name, a, c.Workload, b))
			}
		}
		fmt.Fprintf(stdout, "%-12s nodes/s dedup off %8.0f -> %8.0f, on %8.0f -> %8.0f (on/off %.2f -> %.2f; wall-clock, not compared)\n",
			o.Workload, o.Off.NodesPerSec, c.Off.NodesPerSec, o.On.NodesPerSec, c.On.NodesPerSec, o.Speedup, c.Speedup)
	}
	for i := range old.Examples {
		if old.Examples[i] != cur.Examples[i] {
			diffs = append(diffs, fmt.Sprintf("example: recorded %+v, now %+v", old.Examples[i], cur.Examples[i]))
		}
	}
	return diffs
}

// parallelDiffs lists the deterministic differences between a recorded and
// a fresh parallel report and prints the wall-clock rates side by side.
func parallelDiffs(old, cur *bench.ParallelReport, stdout io.Writer) []string {
	var diffs []string
	if len(old.Workloads) != len(cur.Workloads) {
		return []string{fmt.Sprintf("%d workloads recorded, %d now", len(old.Workloads), len(cur.Workloads))}
	}
	counts := func(r bench.EngineRow) bench.EngineRow {
		r.Seconds, r.NodesPerSec, r.Speedup = 0, 0, 0
		return r
	}
	for i := range old.Workloads {
		o, c := &old.Workloads[i], &cur.Workloads[i]
		if o.Workload != c.Workload || o.DetMergeIdentical != c.DetMergeIdentical || len(o.Rows) != len(c.Rows) {
			diffs = append(diffs, fmt.Sprintf("workload %s (det-merge identical %v, %d rows) is now %s (%v, %d rows)",
				o.Workload, o.DetMergeIdentical, len(o.Rows), c.Workload, c.DetMergeIdentical, len(c.Rows)))
			continue
		}
		for j := range o.Rows {
			a, b := counts(o.Rows[j]), counts(c.Rows[j])
			if a != b {
				diffs = append(diffs, fmt.Sprintf("%s: recorded %+v, now %+v", o.Workload, a, b))
			}
			fmt.Fprintf(stdout, "%-12s %-10s w=%d  exp/s %8.0f -> %8.0f (wall-clock, not compared)\n",
				o.Workload, o.Rows[j].Engine, o.Rows[j].Workers, o.Rows[j].NodesPerSec, c.Rows[j].NodesPerSec)
		}
	}
	return diffs
}
