// Golden search trajectories over the paper's worked examples and a seeded
// Table I sample. Lives in package core_test because it pulls the example
// set from internal/bench, which itself imports core.
package core_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
)

// TestDetMergeWorkedExamplesAcrossWorkerCounts runs every worked example
// from the paper sequentially and under det-merge with 1, 4 and 8 workers.
// The det-merge runs must be byte-identical to each other — same gates in
// the same order, same counters, stop reason, watermark and dedup
// statistics — and both families must match testdata/examples.golden.
// The examples run as parallel subtests, each writing its own two golden
// lines; the golden is checked once all of them have finished.
func TestDetMergeWorkedExamplesAcrossWorkerCounts(t *testing.T) {
	examples := bench.Examples()
	lines := make([]string, 2*len(examples))
	t.Cleanup(func() {
		if !t.Failed() {
			core.CheckGolden(t, "examples.golden", lines)
		}
	})
	for i, b := range examples {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			spec, err := b.PPRMSpec()
			if err != nil {
				t.Fatal(err)
			}
			var want string
			for _, w := range []int{0, 1, 4, 8} {
				opts := core.DefaultOptions()
				opts.TotalSteps = 30000
				opts.Workers = w
				got := core.TrajectoryLine(t, core.Synthesize(spec, opts))
				switch w {
				case 0:
					lines[2*i] = fmt.Sprintf("%s %s %s", core.Family(w), b.Name, got)
				case 1:
					want = got
					lines[2*i+1] = fmt.Sprintf("%s %s %s", core.Family(w), b.Name, got)
				default:
					if got != want {
						t.Errorf("workers=%d diverged from workers=1\n got: %s\nwant: %s", w, got, want)
					}
				}
			}
		})
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
			fmt.Fprintf(h, "%s;", core.TrajectoryLine(t, r))
			steps += r.Steps
			if r.Found {
				solved++
				gates += r.Circuit.Len()
			}
		}
		lines = append(lines, fmt.Sprintf("%s table1-40 solved=%d gates=%d steps=%d fp=%016x",
			core.Family(w), solved, gates, steps, h.Sum64()))
	}
	core.CheckGolden(t, "table1.golden", lines)
}
