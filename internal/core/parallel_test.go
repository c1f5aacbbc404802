package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
	"repro/internal/verify"
)

// detKey flattens every deterministic field of a Result into one
// comparable string: the circuit (gates and gate order), all counters,
// and the stop reason. Two det-merge runs must agree on all of it.
func detKey(t *testing.T, r Result) string {
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

// detSpecs is a small mixed workload: the Fig. 1 function plus seeded
// random 3- and 4-variable reversible functions.
func detSpecs(t *testing.T) []perm.Perm {
	t.Helper()
	src := rng.New(7)
	specs := []perm.Perm{perm.MustFromInts([]int{1, 0, 7, 2, 3, 4, 5, 6})}
	for i := 0; i < 4; i++ {
		specs = append(specs, perm.Random(3, src))
	}
	for i := 0; i < 2; i++ {
		specs = append(specs, perm.Random(4, src))
	}
	return specs
}

func TestBatchedDeterministicAcrossWorkerCounts(t *testing.T) {
	for si, p := range detSpecs(t) {
		spec, err := pprm.FromPerm(p)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for _, w := range []int{1, 2, 4, 8} {
			opts := DefaultOptions()
			opts.TotalSteps = 20000
			opts.Workers = w
			r := Synthesize(spec, opts)
			if r.Workers != w {
				t.Errorf("spec %d workers=%d: Result.Workers = %d", si, w, r.Workers)
			}
			if r.Found {
				if err := verify.Circuit(verify.StageSearch, r.Circuit, p); err != nil {
					t.Errorf("spec %d workers=%d: %v", si, w, err)
				}
			}
			got := detKey(t, r)
			if w == 1 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("spec %d: workers=%d diverged from workers=1\n got: %s\nwant: %s", si, w, got, want)
			}
		}
	}
}

// TestBatchedResumeUnderDifferentWorkerCount interrupts a det-merge run
// by step budget, then resumes the same snapshot under three different
// worker counts; all resumed runs must be byte-identical. This is the
// property that lets a checkpointed job migrate between machines with
// different core counts. (Split-point invariance — matching an
// uninterrupted run node-for-node — is NOT guaranteed: a budget stop
// shifts the commit barriers, so only worker-count invariance is pinned.)
func TestBatchedResumeUnderDifferentWorkerCount(t *testing.T) {
	src := rng.New(11)
	p := perm.Random(4, src)
	spec, err := pprm.FromPerm(p)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultOptions()
	base.TotalSteps = 6000
	base.ImproveSteps = 0
	base.Workers = 4

	dir := t.TempDir()
	path := filepath.Join(dir, "batched.ckpt")
	interrupted := base
	interrupted.TotalSteps = 2500
	interrupted.Checkpoint = Checkpoint{Path: path, EverySteps: 700}
	r1 := Synthesize(spec, interrupted)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if r1.StopReason != StopStepLimit {
		t.Fatalf("interrupted run stopped with %v, want %v", r1.StopReason, StopStepLimit)
	}
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var want string
	for _, w := range []int{1, 4, 8} {
		// Each resume gets its own snapshot copy: resuming keeps
		// checkpointing to the same file, which would otherwise feed
		// the next iteration a later snapshot.
		copyPath := filepath.Join(dir, fmt.Sprintf("resume-%d.ckpt", w))
		if err := os.WriteFile(copyPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		resumed := base
		resumed.Workers = w
		resumed.Checkpoint = Checkpoint{Path: copyPath, EverySteps: 700}
		r, err := ResumeContext(t.Context(), spec, resumed, copyPath)
		if err != nil {
			t.Fatalf("resume workers=%d: %v", w, err)
		}
		if !r.Resumed {
			t.Errorf("workers=%d: resumed run does not report Resumed", w)
		}
		if r.Found {
			if err := verify.Circuit(verify.StageSearch, r.Circuit, p); err != nil {
				t.Errorf("workers=%d: %v", w, err)
			}
		}
		got := detKey(t, r)
		if w == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("resume with workers=%d diverged from workers=1\n got: %s\nwant: %s", w, got, want)
		}
	}
}

// TestOptionsFingerprintPinned pins the fingerprint values themselves:
// answer-cache keys, idempotency keys and checkpoints all embed them, so a
// refactor that changes one silently orphans every stored artifact.
func TestOptionsFingerprintPinned(t *testing.T) {
	w4 := DefaultOptions()
	w4.Workers = 4
	for _, c := range []struct {
		name string
		opts Options
		want uint64
	}{
		{"DefaultOptions", DefaultOptions(), 0xebf77dbe08d016b4},
		{"DefaultOptions+Workers=4", w4, 0x174bd6e96a7c036a},
		{"BasicOptions", BasicOptions(), 0xe347ffa39331dd49},
	} {
		if got := OptionsFingerprint(&c.opts); got != c.want {
			t.Errorf("%s: fingerprint %016x, want %016x", c.name, got, c.want)
		}
	}
}

func TestParallelFingerprintFamilies(t *testing.T) {
	seq := DefaultOptions()
	seqFP := OptionsFingerprint(&seq)

	w1 := seq
	w1.Workers = 1
	w8 := seq
	w8.Workers = 8
	if got := OptionsFingerprint(&w1); got == seqFP {
		t.Error("det-merge fingerprint equals sequential; the engines are distinct trajectory families")
	}
	if OptionsFingerprint(&w1) != OptionsFingerprint(&w8) {
		t.Error("det-merge fingerprints differ across worker counts; resume across widths would be rejected")
	}
}

// TestSearchInvariantsHold drives both round strides with the test-only
// step hook asserting, at every round boundary, that the queue
// byte accounting matches a full recount and that the peak watermark is
// monotone — the regression guard for the double-count class of bug.
func TestSearchInvariantsHold(t *testing.T) {
	src := rng.New(3)
	p := perm.Random(4, src)
	spec, err := pprm.FromPerm(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} { // 0 = one pop per round, 4 = det-merge rounds
		opts := DefaultOptions()
		opts.TotalSteps = 4000
		opts.ImproveSteps = 0
		opts.Workers = workers
		s := newSearcher(spec, opts)
		var lastPeak int64
		checks := 0
		s.stepHook = func(s *searcher) {
			checks++
			var sum int64
			s.pq.Each(func(n *node) { sum += int64(n.mem) })
			if sum != s.queueBytes {
				t.Fatalf("workers=%d: queueBytes=%d but recount=%d (stale accounting)", workers, s.queueBytes, sum)
			}
			if s.peakBytes < lastPeak {
				t.Fatalf("workers=%d: peak watermark moved backwards: %d -> %d", workers, lastPeak, s.peakBytes)
			}
			if s.peakBytes < s.queueBytes {
				t.Fatalf("workers=%d: peak %d below live queue bytes %d", workers, s.peakBytes, s.queueBytes)
			}
			lastPeak = s.peakBytes
		}
		r := s.run()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if checks == 0 {
			t.Fatalf("workers=%d: step hook never ran", workers)
		}
	}
}
