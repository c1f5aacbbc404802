package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
)

// drainCfg is the shared configuration of the drain tests: a single worker
// (deterministic scheduling), step-cadenced checkpoints (deterministic
// snapshot points), and a generous ceiling so budgets never interfere.
func drainCfg(dir string) Config {
	return Config{
		Workers:              1,
		StateDir:             dir,
		CheckpointEverySteps: 5000,
		Ceiling:              core.BudgetCeiling{MaxTime: time.Minute, MaxMemory: 512 << 20},
	}
}

// rd53Request is the drain workload: rd53 bounded to 30000 deterministic
// steps, so the search runs a few hundred milliseconds — long enough to
// drain mid-run, short enough to finish fast on resume.
func rd53Request() Request {
	return Request{
		Spec:   SpecInput{Bench: "rd53"},
		Budget: Budget{Steps: 30000, TimeMillis: 55000},
	}
}

// admitDirect compiles and admits a request without the HTTP layer.
func admitDirect(t *testing.T, s *Server, req Request) *Job {
	t.Helper()
	c, rerr := compileRequest(&req, s.cfg.Ceiling)
	if rerr != nil {
		t.Fatalf("compile: %v", rerr)
	}
	j, _, err := s.admit(c, req)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	return j
}

// waitSteps polls the job's live run until it has expanded at least n
// nodes, proving the search is genuinely mid-flight.
func waitSteps(t *testing.T, j *Job, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.Run().Snapshot(time.Now()).Steps >= n {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("job never reached %d steps (at %d)", n, j.Run().Snapshot(time.Now()).Steps)
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s never finished (status %s)", j.ID(), j.Status())
	}
}

// resultJSON marshals only the deterministic result payload — the view the
// byte-identical acceptance check compares.
func resultJSON(t *testing.T, j *Job) []byte {
	t.Helper()
	v := j.view(false)
	if v.Result == nil {
		t.Fatalf("job %s has no result (status %s, error %q)", j.ID(), v.Status, v.Error)
	}
	data, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestDrainRestartResumesByteIdentical is the acceptance check of the
// drain machinery: SIGTERM-equivalent drain mid-search, restart, and the
// resumed job must finish with a byte-identical result to an uninterrupted
// run of the same request.
func TestDrainRestartResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()

	// Uninterrupted baseline in its own state dir.
	base, err := New(drainCfg(t.TempDir()))
	if err != nil {
		t.Fatalf("New baseline: %v", err)
	}
	base.Start()
	bj := admitDirect(t, base, rd53Request())
	waitDone(t, bj)
	if bj.Status() != StatusDone {
		t.Fatalf("baseline status = %s", bj.Status())
	}
	want := resultJSON(t, bj)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	base.Drain(ctx)
	cancel()

	// Server A: drain it mid-search.
	a, err := New(drainCfg(dir))
	if err != nil {
		t.Fatalf("New a: %v", err)
	}
	a.Start()
	j := admitDirect(t, a, rd53Request())
	waitSteps(t, j, 1000)
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cancel()
	if j.Status() != StatusInterrupted {
		// The search outran the drain — the window is ~200 ms of steps, so
		// this means the machinery (not the timing) regressed.
		t.Fatalf("status after drain = %s, want interrupted", j.Status())
	}
	if _, err := os.Stat(filepath.Join(dir, ledgerName)); err != nil {
		t.Fatalf("ledger not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-"+j.ID()+".snap")); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	// Server B: restart over the same state dir; the job must be recovered
	// under the same ID, resumed from the checkpoint, and run to completion.
	b, err := New(drainCfg(dir))
	if err != nil {
		t.Fatalf("New b: %v", err)
	}
	if n := b.Stats().Recovered; n != 1 {
		t.Fatalf("recovered = %d, want 1 (notes: %v)", n, b.RecoveryNotes())
	}
	rj, ok := b.job(j.ID())
	if !ok {
		t.Fatalf("recovered job %s not found", j.ID())
	}
	b.Start()
	waitDone(t, rj)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		b.Drain(ctx)
	}()
	if rj.Status() != StatusDone {
		t.Fatalf("resumed status = %s (error %q)", rj.Status(), rj.view(false).Error)
	}
	rv := rj.view(false)
	if !rv.Resumed {
		t.Errorf("job not marked resumed — it re-ran from scratch (note: %q)", rv.Note)
	}
	got := resultJSON(t, rj)
	if string(got) != string(want) {
		t.Errorf("resumed result differs from uninterrupted run:\nresumed: %s\nbaseline: %s", got, want)
	}

	// The ledger is consumed by recovery and the checkpoint by completion:
	// a third start is clean.
	if _, err := os.Stat(filepath.Join(dir, ledgerName)); !os.IsNotExist(err) {
		t.Errorf("ledger still present after recovery: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-"+j.ID()+".snap")); !os.IsNotExist(err) {
		t.Errorf("checkpoint still present after completion: %v", err)
	}
}

// TestDrainPersistsQueuedJobs: jobs that never reached a worker survive the
// drain in the ledger and run to completion after restart.
func TestDrainPersistsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	cfg := drainCfg(dir)
	cfg.Runner = blockingRunner(block)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()

	mk := func(steps int) Request {
		return Request{Spec: SpecInput{Bench: "rd32"}, Budget: Budget{Steps: steps}}
	}
	running := admitDirect(t, s, mk(30000))
	q1 := admitDirect(t, s, mk(30001))
	q2 := admitDirect(t, s, mk(30002))
	waitForDepth(t, s, 2, 0)
	_ = running

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cancel()
	close(block)
	for _, j := range []*Job{q1, q2} {
		if j.Status() != StatusInterrupted {
			t.Errorf("queued job %s = %s, want interrupted", j.ID(), j.Status())
		}
	}

	// Restart with the real engine: all three jobs (the blocked "running"
	// one included — its fake runner returned canceled) re-run and finish.
	s2, err := New(drainCfg(dir))
	if err != nil {
		t.Fatalf("New 2: %v", err)
	}
	if n := s2.Stats().Recovered; n != 3 {
		t.Fatalf("recovered = %d, want 3 (notes: %v)", n, s2.RecoveryNotes())
	}
	s2.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Drain(ctx)
	}()
	for _, id := range []string{running.ID(), q1.ID(), q2.ID()} {
		j, ok := s2.job(id)
		if !ok {
			t.Fatalf("job %s not recovered", id)
		}
		waitDone(t, j)
		if j.Status() != StatusDone {
			t.Errorf("job %s = %s after restart, want done", id, j.Status())
		}
		if v := j.view(false); v.Result == nil || !v.Result.Found {
			t.Errorf("job %s found no circuit after restart", id)
		}
	}
}

// TestRecoverDeduplicatesLedgerEntries: ledger entries that compile to one
// job — the same entry twice, or an entry re-keyed onto another's key —
// recover as one queued job. A dropped duplicate leaves the kept job's
// checkpoint file alone.
func TestRecoverDeduplicatesLedgerEntries(t *testing.T) {
	dir := t.TempDir()
	cfg := drainCfg(dir)
	req := permRequest("{1, 0, 7, 2, 3, 4, 5, 6}")
	c, rerr := compileRequest(&req, cfg.Ceiling)
	if rerr != nil {
		t.Fatal(rerr)
	}
	id, stale := jobID(c.key), "00000000deadbeef"
	led := drainLedger{Version: ledgerVersion, Jobs: []ledgerEntry{
		{ID: stale, Request: req}, // re-keyed onto id
		{ID: id, Request: req},
		{ID: id, Request: req},
	}}
	data, err := json.Marshal(&led)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ledgerName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := func(id string) string { return filepath.Join(dir, "ckpt-"+id+".snap") }
	for _, path := range []string{ckpt(stale), ckpt(id)} {
		if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainAll(t, s)
	if qi, qb := s.queue.Depths(); qi != 1 || qb != 0 {
		t.Errorf("queued %d interactive, %d batch; want 1, 0 (notes: %v)", qi, qb, s.RecoveryNotes())
	}
	if got := s.Stats().Recovered; got != 1 {
		t.Errorf("recovered %d jobs, want 1", got)
	}
	dups := 0
	for _, note := range s.RecoveryNotes() {
		if strings.Contains(note, "duplicate of job "+id) {
			dups++
		}
	}
	if dups != 2 {
		t.Errorf("%d duplicate notes, want 2: %v", dups, s.RecoveryNotes())
	}
	if _, err := os.Stat(ckpt(id)); err != nil {
		t.Errorf("kept job's checkpoint removed by a duplicate: %v", err)
	}
}

// TestLedgerWriteCrashEnumeration crashes the drain's ledger write at every
// filesystem operation (torn writes included) and proves the all-or-nothing
// property: the next start either recovers every job or none, and never
// fails to come up.
func TestLedgerWriteCrashEnumeration(t *testing.T) {
	const jobs = 3

	// Probe run: count the filesystem operations of a full drain.
	runDrain := func(dir string, crashAt int) (*chaos.FS, error) {
		ffs := chaos.New(nil)
		ffs.CrashAt(crashAt, 3)
		block := make(chan struct{})
		defer close(block)
		cfg := drainCfg(dir)
		cfg.FS = ffs
		cfg.Runner = blockingRunner(block)
		s, err := New(cfg)
		if err != nil {
			return ffs, fmt.Errorf("New: %w", err)
		}
		s.Start()
		for i := 0; i < jobs; i++ {
			admitDirect(t, s, Request{Spec: SpecInput{Bench: "rd32"}, Budget: Budget{Steps: 40000 + i}})
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return ffs, s.Drain(ctx)
	}

	probe, err := runDrain(t.TempDir(), -1)
	if err != nil {
		t.Fatalf("probe drain: %v", err)
	}
	total := probe.Ops()
	if total == 0 {
		t.Fatalf("probe drain performed no filesystem operations")
	}

	for crashAt := 0; crashAt < total; crashAt++ {
		t.Run(fmt.Sprintf("crash-at-%d", crashAt), func(t *testing.T) {
			dir := t.TempDir()
			if _, err := runDrain(dir, crashAt); err == nil {
				t.Fatalf("drain succeeded despite crash at op %d", crashAt)
			}
			// Restart on the possibly-damaged state dir: must come up, with
			// either the whole batch or a clean slate.
			s, err := New(drainCfg(dir))
			if err != nil {
				t.Fatalf("restart failed: %v", err)
			}
			n := s.Stats().Recovered
			if n != 0 && n != jobs {
				t.Errorf("recovered %d of %d jobs — a torn ledger leaked through (notes: %v)",
					n, jobs, s.RecoveryNotes())
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Drain(ctx)
		})
	}
}

// TestCorruptCheckpointRerunsFresh: a damaged drain checkpoint must degrade
// to a fresh re-run that still completes correctly, never a wrong result or
// a stuck job.
func TestCorruptCheckpointRerunsFresh(t *testing.T) {
	dir := t.TempDir()
	a, err := New(drainCfg(dir))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a.Start()
	j := admitDirect(t, a, rd53Request())
	waitSteps(t, j, 1000)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cancel()

	// Vandalize the checkpoint: keep the size plausible, destroy the content.
	ckpt := filepath.Join(dir, "ckpt-"+j.ID()+".snap")
	if err := os.WriteFile(ckpt, []byte("not a snapshot at all"), 0o600); err != nil {
		t.Fatalf("corrupt: %v", err)
	}

	b, err := New(drainCfg(dir))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if n := b.Stats().Recovered; n != 1 {
		t.Fatalf("recovered = %d, want 1 (notes: %v)", n, b.RecoveryNotes())
	}
	notes := b.RecoveryNotes()
	foundNote := false
	for _, n := range notes {
		if strings.Contains(n, "checkpoint unusable") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Errorf("no 'checkpoint unusable' recovery note in %v", notes)
	}
	rj, _ := b.job(j.ID())
	b.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		b.Drain(ctx)
	}()
	waitDone(t, rj)
	v := rj.view(false)
	if rj.Status() != StatusDone || v.Result == nil || !v.Result.Found {
		t.Fatalf("fresh re-run failed: status=%s result=%+v error=%q", rj.Status(), v.Result, v.Error)
	}
	if v.Resumed {
		t.Errorf("job claims resumed from a corrupt checkpoint")
	}
}
