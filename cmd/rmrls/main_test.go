package main

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/obs"
)

func TestLoadSpecPermLiteral(t *testing.T) {
	spec, p, _, err := loadSpec("", false, false, 0, []string{"{1, 0, 7, 2, 3, 4, 5, 6}"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if spec.N != 3 || p == nil {
		t.Errorf("spec.N=%d p=%v", spec.N, p)
	}
}

func TestLoadSpecBench(t *testing.T) {
	spec, p, _, err := loadSpec("graycode6", false, false, 0, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if spec.N != 6 || p == nil {
		t.Errorf("bench load broken: n=%d", spec.N)
	}
	if _, _, _, err := loadSpec("nonesuch", false, false, 0, nil, io.Discard); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestLoadSpecPPRMFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.pprm")
	if err := os.WriteFile(path, []byte("a' = a ^ 1\nb' = b ^ c ^ ac\nc' = b ^ ab ^ ac\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, p, _, err := loadSpec("", true, false, 3, []string{path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if spec.N != 3 || p == nil {
		t.Error("pprm file load broken")
	}
	// Non-reversible PPRM must be rejected.
	bad := filepath.Join(dir, "bad.pprm")
	os.WriteFile(bad, []byte("a' = b\nb' = b\n"), 0o644)
	if _, _, _, err := loadSpec("", true, false, 2, []string{bad}, io.Discard); err == nil {
		t.Error("non-reversible PPRM should fail")
	}
}

func TestLoadSpecPermFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.perm")
	os.WriteFile(path, []byte("{1, 0, 3, 2}"), 0o644)
	spec, _, _, err := loadSpec("", false, false, 0, []string{path}, io.Discard)
	if err != nil || spec.N != 2 {
		t.Errorf("perm file load broken: %v", err)
	}
}

func TestLoadSpecErrors(t *testing.T) {
	if _, _, _, err := loadSpec("", false, false, 0, nil, io.Discard); err == nil {
		t.Error("missing argument should fail")
	}
	if _, _, _, err := loadSpec("", true, false, 0, []string{"x"}, io.Discard); err == nil {
		t.Error("pprm without -n should fail")
	}
	if _, _, _, err := loadSpec("", false, false, 0, []string{"{0, 0}"}, io.Discard); err == nil {
		t.Error("invalid permutation should fail")
	}
}

func TestRunSuccessExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"{1, 0, 3, 2}"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "verified") {
		t.Errorf("success output missing verification line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "stop=solved") {
		t.Errorf("stats line missing stop reason:\n%s", out.String())
	}
}

// TestRunMetricsJSON: -metrics-json must produce a parseable JSON-lines
// file whose final snapshot is done, solved, and agrees with the printed
// gate count.
func TestRunMetricsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	var out, errb bytes.Buffer
	code := run(context.Background(),
		[]string{"-metrics-json", path, "-progress", "-bench", "rd53"},
		&out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var last obs.ProgressSnapshot
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var snap obs.ProgressSnapshot
		if err := json.Unmarshal([]byte(line), &snap); err != nil {
			t.Fatalf("unparseable metrics line %q: %v", line, err)
		}
		lines++
		if snap.Label == "rmrls" {
			last = snap
		}
	}
	if lines == 0 {
		t.Fatal("metrics file is empty")
	}
	if !last.Done || last.Stop != "solved" {
		t.Errorf("final snapshot done=%v stop=%q, want a solved run", last.Done, last.Stop)
	}
	// The snapshot's best circuit must agree with the printed stats line.
	var printed int
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "# gates=") {
			fmt.Sscanf(line, "# gates=%d", &printed)
		}
	}
	if printed == 0 || last.BestGates != printed {
		t.Errorf("final snapshot best_gates=%d, printed gates=%d", last.BestGates, printed)
	}
	if last.Steps != last.Nodes && last.Steps <= 0 {
		t.Errorf("final snapshot has no work recorded: %+v", last)
	}
	// The TTY progress sink writes to stderr and must end with a newline so
	// subsequent diagnostics start on a fresh line.
	if errb.Len() > 0 && !strings.HasSuffix(errb.String(), "\n") {
		t.Errorf("progress output does not end in newline: %q", errb.String())
	}
}

// TestRunNoCircuitExitsNonZero: the swap function needs three gates, so
// -maxgates 1 makes the search provably fail; the exit code must be
// non-zero and stderr must name the stop reason.
func TestRunNoCircuitExitsNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-maxgates", "1", "{0, 2, 1, 3}"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "no circuit found") || !strings.Contains(errb.String(), "stop=") {
		t.Errorf("failure message missing diagnostics: %s", errb.String())
	}
}

func TestRunCanceledExitsNonZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	// A 6-wire benchmark: too hard to solve inside the cancellation
	// latency window, so the canceled run has no circuit to print.
	code := run(ctx, []string{"-bench", "hwb6", "-time", "60s"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "stop=canceled") {
		t.Errorf("stderr does not attribute the failure to cancellation: %s", errb.String())
	}
}

func TestRunBadUsageExitsOne(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"{0, 0}"}, &out, &errb); code != 1 {
		t.Errorf("invalid spec: exit code = %d, want 1", code)
	}
	if code := run(context.Background(), []string{"-library", "bogus", "{1, 0}"}, &out, &errb); code != 1 {
		t.Errorf("bad library: exit code = %d, want 1", code)
	}
}

// swap4Spec needs a few dozen search steps — enough to interrupt with a
// small -steps budget and meaningfully resume.
const swap4Spec = "{0, 2, 1, 3, 8, 10, 9, 11, 4, 6, 5, 7, 12, 14, 13, 15}"

func TestRunCheckpointResumeFlow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var out, errb bytes.Buffer

	// Segment 1: interrupted by the step budget, leaves a checkpoint.
	code := run(context.Background(), []string{"-checkpoint", path, "-steps", "3", swap4Spec}, &out, &errb)
	if code != 2 {
		t.Fatalf("segment 1 exit code = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "checkpoint saved") {
		t.Errorf("stderr does not announce the saved checkpoint: %s", errb.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint on disk: %v", err)
	}

	// Segment 2: resumes and finishes; success removes the checkpoint.
	out.Reset()
	errb.Reset()
	code = run(context.Background(), []string{"-checkpoint", path, "-resume", swap4Spec}, &out, &errb)
	if code != 0 {
		t.Fatalf("segment 2 exit code = %d; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "resumed from checkpoint") {
		t.Errorf("stderr does not announce the resume: %s", errb.String())
	}
	if !strings.Contains(out.String(), "verified") {
		t.Errorf("resumed run not verified:\n%s", out.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after the run completed: %v", err)
	}
}

func TestRunResumeDamagedCheckpointFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-checkpoint", path, "-resume", "{1, 0, 3, 2}"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "cannot resume") || !strings.Contains(errb.String(), "starting fresh") {
		t.Errorf("damaged checkpoint not diagnosed: %s", errb.String())
	}
}

// TestRunResumeV1CheckpointStartsFresh: a checkpoint in the retired
// version-1 format is diagnosed and the run starts over.
func TestRunResumeV1CheckpointStartsFresh(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "..", "internal", "snapshot", "testdata", "v1-swap4.snap"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-checkpoint", path, "-resume", swap4Spec}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unsupported format version") || !strings.Contains(errb.String(), "starting fresh") {
		t.Errorf("v1 checkpoint not diagnosed: %s", errb.String())
	}
}

func TestRunResumeMissingCheckpointIsSilent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.ckpt")
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-checkpoint", path, "-resume", "{1, 0, 3, 2}"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d; stderr: %s", code, errb.String())
	}
	if strings.Contains(errb.String(), "cannot resume") {
		t.Errorf("missing checkpoint should start fresh silently: %s", errb.String())
	}
}

func TestRunCheckpointFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-resume", "{1, 0}"}, &out, &errb); code != 1 {
		t.Errorf("-resume without -checkpoint: exit code = %d, want 1", code)
	}
	if code := run(context.Background(), []string{"-portfolio", "-checkpoint", "x.ckpt", "{1, 0}"}, &out, &errb); code != 1 {
		t.Errorf("-portfolio with -checkpoint: exit code = %d, want 1", code)
	}
}

// TestHandleSignals drives the two-stage interrupt protocol: the first
// signal cancels the context, the second exits with 130.
func TestHandleSignals(t *testing.T) {
	sig := make(chan os.Signal, 2)
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan int, 1)
	var errb bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		handleSignals(sig, cancel, &errb, func(code int) { exited <- code })
	}()

	sig <- os.Interrupt
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("first interrupt did not cancel the context")
	}
	select {
	case code := <-exited:
		t.Fatalf("first interrupt exited with %d", code)
	default:
	}

	sig <- os.Interrupt
	select {
	case code := <-exited:
		if code != 130 {
			t.Fatalf("second interrupt exited with %d, want 130", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second interrupt did not force an exit")
	}
	<-done
	if !strings.Contains(errb.String(), "interrupt") {
		t.Errorf("no interrupt notice on stderr: %s", errb.String())
	}
}

func TestLoadSpecPLAFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "maj.pla")
	os.WriteFile(path, []byte(".i 3\n.o 1\n111 1\n110 1\n101 1\n011 1\n000 0\n001 0\n010 0\n100 0\n.e\n"), 0o644)
	spec, p, pla, err := loadSpec("", false, true, 0, []string{path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if spec.N != 3 || p == nil {
		t.Errorf("PLA load: n=%d", spec.N)
	}
	if pla == nil || pla.pt == nil || pla.emb == nil {
		t.Error("PLA load lost the partial table or embedding")
	}
}

// TestRunInjectedMiscompileExitsThree: with the engine-side fault hook
// corrupting every found circuit, the CLI must refuse to print a circuit
// and exit 3 with the counterexample and the rejected cascade on stderr.
func TestRunInjectedMiscompileExitsThree(t *testing.T) {
	core.CorruptResultHook = func(c *circuit.Circuit) { c.Append(circuit.Gate{Target: 0}) }
	defer func() { core.CorruptResultHook = nil }()

	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"{1, 0, 3, 2}"}, &out, &errb)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "VERIFICATION FAILED") {
		t.Errorf("stderr does not flag the verification failure: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "rejected cascade:") {
		t.Errorf("stderr does not carry the rejected cascade: %s", errb.String())
	}
	if strings.Contains(out.String(), "TOF") {
		t.Errorf("a wrong circuit leaked to stdout:\n%s", out.String())
	}
}

// TestRunMiscompileDiscardsCheckpoint: a resumed run whose circuit the
// gate rejects is finished, not resumable — the CLI removes its checkpoint
// and does not invite a rerun with -resume.
func TestRunMiscompileDiscardsCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-checkpoint", path, "-steps", "3", swap4Spec}, &out, &errb); code != 2 {
		t.Fatalf("segment 1 exit code = %d, want 2; stderr: %s", code, errb.String())
	}

	core.CorruptResultHook = func(c *circuit.Circuit) { c.Append(circuit.Gate{Target: 0}) }
	defer func() { core.CorruptResultHook = nil }()
	errb.Reset()
	if code := run(context.Background(), []string{"-checkpoint", path, "-resume", swap4Spec}, &out, &errb); code != 3 {
		t.Fatalf("segment 2 exit code = %d, want 3; stderr: %s", code, errb.String())
	}
	if strings.Contains(errb.String(), "rerun with -resume") {
		t.Errorf("a verify failure invites a resume: %s", errb.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("checkpoint kept after a verify failure: %v", err)
	}
}

// TestRunNoVerifyOptsOut: -noverify disables the gate; the corrupted
// circuit goes through (exit 0) but without any "# verified" claim.
func TestRunNoVerifyOptsOut(t *testing.T) {
	core.CorruptResultHook = func(c *circuit.Circuit) { c.Append(circuit.Gate{Target: 0}) }
	defer func() { core.CorruptResultHook = nil }()

	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-noverify", "{1, 0, 3, 2}"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	if strings.Contains(out.String(), "# verified") {
		t.Errorf("-noverify run still claims verification:\n%s", out.String())
	}
}

// TestRunStagePipelineVerified: every post-search transform is re-checked
// by the oracle; the run must still verify end to end.
func TestRunStagePipelineVerified(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(),
		[]string{"-simplify", "-peephole", "-lower", "{1, 0, 7, 2, 3, 4, 5, 6}"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "# verified: circuit realizes the specification") {
		t.Errorf("pipeline output missing verification line:\n%s", out.String())
	}
}

// TestRunPLAVerifiedAgainstCareBits: an embedded PLA run must check the
// final cascade against the original partial table, not only the embedded
// permutation, and say so.
func TestRunPLAVerifiedAgainstCareBits(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "maj.pla")
	os.WriteFile(path, []byte(".i 3\n.o 1\n111 1\n110 1\n101 1\n011 1\n000 0\n001 0\n010 0\n100 0\n.e\n"), 0o644)
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-pla", "-time", "30s", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "matches the PLA on every care bit") {
		t.Errorf("PLA run missing the don't-care-aware verification line:\n%s", out.String())
	}
}

// TestRunPLAReportsEmbeddingOnItsStderr: the "# embedded:" line of a -pla
// run goes to the stderr writer run was given, not to the process's.
func TestRunPLAReportsEmbeddingOnItsStderr(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "maj.pla")
	os.WriteFile(path, []byte(".i 3\n.o 1\n111 1\n110 1\n101 1\n011 1\n000 0\n001 0\n010 0\n100 0\n.e\n"), 0o644)
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-pla", "-q", "-time", "30s", path}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "# embedded: 3 wires, ") {
		t.Errorf("run's stderr lacks the embedding line:\n%s", errb.String())
	}
	if strings.Contains(out.String(), "# embedded:") {
		t.Errorf("embedding line went to stdout:\n%s", out.String())
	}
}

// TestCacheExpvarsViewTheCache: rmrls.cache_* read the answer cache's own
// Stats. A second -cache-dir run in the same process re-publishes them
// without panicking on the duplicate names and answers from the cache, so
// rmrls.cache_hits moves.
func TestCacheExpvarsViewTheCache(t *testing.T) {
	dir := t.TempDir()
	for i, want := range []struct{ hits, misses string }{{"0", "1"}, {"1", "0"}} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), []string{"-cache-dir", dir, "{1, 0, 7, 2, 3, 4, 5, 6}"}, &out, &errb); code != 0 {
			t.Fatalf("run %d exit %d: %s", i, code, errb.String())
		}
		hits, misses := expvar.Get("rmrls.cache_hits").String(), expvar.Get("rmrls.cache_misses").String()
		if hits != want.hits || misses != want.misses {
			t.Errorf("run %d: rmrls.cache_hits/misses = %s/%s, want %s/%s\n%s", i, hits, misses, want.hits, want.misses, out.String())
		}
	}
}
