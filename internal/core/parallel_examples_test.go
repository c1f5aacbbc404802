// Golden search trajectories over the paper's worked examples and a seeded
// Table I sample. Lives in package core_test because it pulls the example
// set from internal/bench, which itself imports core.
package core_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden trajectory files from this run")

// trajectoryLine flattens every deterministic field of a Result: the
// circuit (gates and gate order), the counters, the stop reason, the memory
// watermark and the dedup statistics.
func trajectoryLine(t *testing.T, r core.Result) string {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("synthesis error: %v", r.Err)
	}
	gates := "<none>"
	if r.Found {
		gates = r.Circuit.String()
	}
	return fmt.Sprintf("found=%v gates=%q steps=%d nodes=%d restarts=%d stop=%v peak=%d hits=%d misses=%d evictions=%d",
		r.Found, gates, r.Steps, r.Nodes, r.Restarts, r.StopReason,
		r.PeakQueueBytes, r.DedupHits, r.DedupMisses, r.DedupEvictions)
}

// family names the two trajectory families: Workers=0 pops one node per
// round, Workers≥1 pops a fixed batch per round whatever the width.
func family(workers int) string {
	if workers == 0 {
		return "sequential"
	}
	return "det-merge"
}

// checkGolden compares lines with testdata/name, or rewrites the file when
// the test runs with -update. A change to a single search step shows up
// here; re-bless the file in the same change and say why the search moved.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s: %d lines, golden has %d", name, len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("%s line %d diverged from the golden trajectory\n got: %s\nwant: %s", name, i+1, lines[i], want[i])
		}
	}
}

// TestDetMergeWorkedExamplesAcrossWorkerCounts runs every worked example
// from the paper sequentially and under det-merge with 1, 4 and 8 workers.
// The det-merge runs must be byte-identical to each other — same gates in
// the same order, same counters, stop reason, watermark and dedup
// statistics — and both families must match testdata/examples.golden.
func TestDetMergeWorkedExamplesAcrossWorkerCounts(t *testing.T) {
	examples := bench.Examples()
	lines := make([]string, 0, 2*len(examples))
	for _, b := range examples {
		t.Run(b.Name, func(t *testing.T) {
			spec, err := b.PPRMSpec()
			if err != nil {
				t.Fatal(err)
			}
			var want string
			for _, w := range []int{0, 1, 4, 8} {
				opts := core.DefaultOptions()
				opts.TotalSteps = 30000
				opts.Workers = w
				got := trajectoryLine(t, core.Synthesize(spec, opts))
				switch w {
				case 0:
					lines = append(lines, fmt.Sprintf("%s %s %s", family(w), b.Name, got))
				case 1:
					want = got
					lines = append(lines, fmt.Sprintf("%s %s %s", family(w), b.Name, got))
				default:
					if got != want {
						t.Errorf("workers=%d diverged from workers=1\n got: %s\nwant: %s", w, got, want)
					}
				}
			}
		})
	}
	if !t.Failed() {
		checkGolden(t, "examples.golden", lines)
	}
}

// TestTable1TrajectoryGolden fingerprints a seeded 40-function Table I
// sample (the first 40 functions of the benchmark's seed-1 table1-3var
// workload) under each family and pins the fingerprints in
// testdata/table1.golden.
func TestTable1TrajectoryGolden(t *testing.T) {
	src := rng.New(1)
	fns := make([]perm.Perm, 40)
	for i := range fns {
		fns[i] = perm.Random(3, src)
	}
	var lines []string
	for _, w := range []int{0, 1} {
		h := fnv.New64a()
		solved, gates, steps := 0, 0, 0
		for _, p := range fns {
			spec, err := pprm.FromPerm(p)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.TotalSteps = 30000
			opts.Workers = w
			r := core.Synthesize(spec, opts)
			fmt.Fprintf(h, "%s;", trajectoryLine(t, r))
			steps += r.Steps
			if r.Found {
				solved++
				gates += r.Circuit.Len()
			}
		}
		lines = append(lines, fmt.Sprintf("%s table1-40 solved=%d gates=%d steps=%d fp=%016x",
			family(w), solved, gates, steps, h.Sum64()))
	}
	checkGolden(t, "table1.golden", lines)
}
