package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden-trajectory helpers live in package core so that the internal
// golden tests (wide.golden) can reach unexported knobs such as queueCap and
// the round hook; the external golden tests use them through the exported
// aliases at the bottom of this file.

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden trajectory files from this run")

// trajectoryLine flattens every deterministic field of a Result: the
// circuit (gates and gate order), the counters, the stop reason, the memory
// watermark and the dedup statistics.
func trajectoryLine(t testing.TB, r Result) string {
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
func checkGolden(t testing.TB, name string, lines []string) {
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

// Aliases for the golden tests of package core_test.
var (
	CheckGolden    = checkGolden
	TrajectoryLine = trajectoryLine
	Family         = family
)
