package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/circuit"
)

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Add(3)
	h.Add(3)
	h.Add(5)
	h.Add(-1)
	if h.Total != 4 || h.Failed != 1 {
		t.Errorf("total/failed = %d/%d", h.Total, h.Failed)
	}
	if h.Average() != (3+3+5)/3.0 {
		t.Errorf("average = %v", h.Average())
	}
	if h.Bucket(1, 5) != 3 || h.Bucket(4, 10) != 1 {
		t.Error("bucket sums wrong")
	}
}

func TestTable1Sampled(t *testing.T) {
	res := Table1(context.Background(), Table1Config{Samples: 60, Seed: 1})
	if res.Ours.Total != 60 {
		t.Fatalf("ran %d functions, want 60", res.Ours.Total)
	}
	if res.Ours.Failed > 1 {
		t.Errorf("too many failures: %d/60", res.Ours.Failed)
	}
	// Optimal columns are the exact published ones.
	if res.OptimalNCT.Total != 40320 || res.OptimalNCTS.Total != 40320 {
		t.Errorf("optimal columns incomplete: %d/%d",
			res.OptimalNCT.Total, res.OptimalNCTS.Total)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	out := buf.String()
	for _, want := range []string{"avg", "paper:RMRLS", "6.10", "5.87"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

func TestRandomFunctionsSmall(t *testing.T) {
	cfg := Table2Config(8, 7)
	cfg.TotalSteps = 30000
	cfg.ImproveSteps = 4000
	res := RandomFunctions(context.Background(), cfg)
	if res.Hist.Total != 8 {
		t.Fatalf("ran %d, want 8", res.Hist.Total)
	}
	if res.Hist.Failed == res.Hist.Total {
		t.Error("every 4-variable function failed")
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "4-variable random functions") {
		t.Error("summary line missing")
	}
}

func TestScalabilitySmall(t *testing.T) {
	cfg := ScalabilityConfig{
		MaxGateCount: 10, SamplesPerVar: 4,
		MinVars: 6, MaxVars: 8, Seed: 3, TotalSteps: 20000,
		Library: circuit.GT,
	}
	res := Scalability(context.Background(), cfg)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Hist.Total != 4 {
			t.Errorf("vars %d: %d samples", row.Vars, row.Hist.Total)
		}
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "fail%") {
		t.Error("failure column missing")
	}
}

func TestBenchmarksSubset(t *testing.T) {
	res := Benchmarks(context.Background(), BenchmarkConfig{
		TotalSteps:   60000,
		ImproveSteps: 5000,
		Only:         []string{"graycode6", "xor5", "rd32"},
	})
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Found {
			t.Errorf("%s failed to synthesize", row.Bench.Name)
		}
		if !row.Verified {
			t.Errorf("%s not verified", row.Bench.Name)
		}
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "graycode6") {
		t.Error("table output missing benchmark name")
	}
}

func TestFig5Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"a = a ^ 1", "b = b ^ ac", "c = c ^ ab",
		"solution", "TOF1(a) TOF3(c,a,b) TOF3(b,a,c)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 5 trace missing %q", want)
		}
	}
}

// TestExamplesQuickSubset runs all fourteen examples on a small budget:
// the asserted small examples solve within 400 steps, so 4,000 leaves a
// tenfold margin while the large ones stop early.
func TestExamplesQuickSubset(t *testing.T) {
	rows := Examples(context.Background(), 4000)
	if len(rows) != 14 {
		t.Fatalf("examples = %d, want 14", len(rows))
	}
	byName := map[string]ExampleRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// The small examples must all succeed and verify.
	for _, name := range []string{"ex1", "shiftright3", "fredkin3", "swap3",
		"shiftleft3", "shiftleft4", "fulladder"} {
		r := byName[name]
		if !r.Found || !r.Verified {
			t.Errorf("%s: found=%v verified=%v", name, r.Found, r.Verified)
		}
	}
	// Gate counts should be at or below the paper's printed circuits for
	// the toy examples (ours improves some of them).
	if r := byName["shiftright3"]; r.Found && r.Gates > 3 {
		t.Errorf("shiftright3 gates = %d, paper's circuit has 3", r.Gates)
	}
}
