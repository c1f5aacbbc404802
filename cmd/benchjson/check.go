package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"

	"repro/internal/bench"
)

// runCheck implements -check FILE: it re-runs the configuration recorded in
// a report and compares every deterministic field — expansions, gates,
// nodes, dedup counters, example results and trajectory fingerprints —
// with the recorded one. Wall-clock figures are printed for information
// and never compared. The exit code is 0 when nothing moved, 1 on any
// difference or error, 3 when interrupted.
func runCheck(ctx context.Context, file string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	var old bench.Report
	if err := json.Unmarshal(data, &old); err != nil {
		fmt.Fprintf(stderr, "benchjson: %s: %v\n", file, err)
		return 1
	}
	cur, err := bench.Run(ctx, old.Config)
	if err != nil {
		return runError(ctx, err, stderr)
	}
	fmt.Fprintf(stdout, "recorded on %d cpus, GOMAXPROCS %d, %s; now %d, %d, %s\n",
		old.CPUs, old.GOMAXPROCS, old.GoVersion, cur.CPUs, cur.GOMAXPROCS, cur.GoVersion)
	diffs := reportDiffs(&old, cur, stdout)
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

// counts is the deterministic part of a workload row.
func counts(m bench.WorkloadMetrics) bench.WorkloadMetrics {
	m.Seconds, m.NodesPerSec, m.Speedup, m.AllocsPerExpansion, m.BytesPerExpansion = 0, 0, 0, 0, 0
	return m
}

// reportDiffs lists the deterministic differences between a recorded and a
// fresh report and prints the wall-clock rates side by side.
func reportDiffs(old, cur *bench.Report, stdout io.Writer) []string {
	if len(old.Workloads) != len(cur.Workloads) || len(old.Examples) != len(cur.Examples) {
		return []string{fmt.Sprintf("%d workloads and %d examples recorded, %d and %d now",
			len(old.Workloads), len(old.Examples), len(cur.Workloads), len(cur.Examples))}
	}
	var diffs []string
	for i := range old.Workloads {
		o, c := &old.Workloads[i], &cur.Workloads[i]
		if o.Name != c.Name || len(o.Rows) != len(c.Rows) {
			diffs = append(diffs, fmt.Sprintf("workload %s (%d rows) is now %s (%d rows)", o.Name, len(o.Rows), c.Name, len(c.Rows)))
			continue
		}
		for j := range o.Rows {
			if a, b := counts(o.Rows[j]), counts(c.Rows[j]); a != b {
				diffs = append(diffs, fmt.Sprintf("%s: recorded %+v, now %+v", o.Name, a, b))
			}
			fmt.Fprintf(stdout, "%-12s dedup=%-5v w=%d  exp/s %8.0f -> %8.0f (wall-clock, not compared)\n",
				o.Name, o.Rows[j].Dedup, o.Rows[j].Workers, o.Rows[j].NodesPerSec, c.Rows[j].NodesPerSec)
		}
	}
	for i := range old.Examples {
		if !reflect.DeepEqual(old.Examples[i], cur.Examples[i]) {
			diffs = append(diffs, fmt.Sprintf("example: recorded %+v, now %+v", old.Examples[i], cur.Examples[i]))
		}
	}
	return diffs
}
