package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// chaosLog is a concurrency-safe Config.Logf sink.
type chaosLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *chaosLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *chaosLog) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ln := range l.lines {
		if strings.Contains(ln, sub) {
			return true
		}
	}
	return false
}

// submitWait posts a waiting job and returns its decoded view; every 200
// must carry an independently verified result — that is the soak's core
// invariant, checked on every single response.
func submitWait(t *testing.T, url, body string) JobView {
	t.Helper()
	resp, data := postJSON(t, url+"/v1/jobs?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d, want 200; body: %s", resp.StatusCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("unmarshal job view: %v\n%s", err, data)
	}
	if v.Result != nil && v.Result.Found {
		if v.Result.Verified == nil || !*v.Result.Verified {
			t.Fatalf("200 with an unverified result: %s", data)
		}
	}
	return v
}

func domainState(t *testing.T, url, name string) string {
	t.Helper()
	_, body := getURL(t, url+"/v1/healthz")
	return domainView(t, decodeHealth(t, body), name).State
}

// TestChaosSoakRotatingFaults drives the server with the real engine while
// disk faults rotate through the fault domains: ENOSPC on the cache
// directory, then EIO on the state directory while a worker miscompile
// forces the quarantine path. Invariants held throughout: every 200 is
// verified, no submission is lost, results stay deterministic, and every
// tripped domain re-closes once its fault heals.
func TestChaosSoakRotatingFaults(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	stateDir := filepath.Join(t.TempDir(), "state")
	cfs := chaos.New(nil)
	logs := &chaosLog{}

	var srv *Server
	var attempts atomic.Int64
	var corruptNext atomic.Bool
	cfg := Config{
		Workers:      2,
		StateDir:     stateDir,
		CacheDir:     cacheDir,
		FS:           cfs,
		HealthConfig: fastBreakers,
		Logf:         logs.logf,
		Runner: corruptingRunner(&srv, &attempts, func(int64) bool {
			return corruptNext.CompareAndSwap(true, false)
		}),
	}
	s, ts := startTestServer(t, cfg)
	srv = s

	// Distinct 3-variable functions so each round generates fresh cache
	// disk traffic instead of deduplicating against earlier rounds.
	perms := []string{
		"{0, 1, 2, 3, 4, 5, 7, 6}",
		"{1, 0, 3, 2, 5, 4, 7, 6}",
		"{7, 6, 5, 4, 3, 2, 1, 0}",
		"{1, 2, 3, 4, 5, 6, 7, 0}",
		"{0, 2, 4, 6, 1, 3, 5, 7}",
	}
	permJob := func(i int) string {
		return fmt.Sprintf(`{"spec":{"perm":"%s"},"budget":{"time_ms":30000,"steps":%d}}`,
			perms[i], 500000+i)
	}

	// --- Round 1: cache device out of space. Synthesis must not notice:
	// jobs complete verified; the cache domain trips and sheds the disk.
	cfs.Fail(cacheDir, chaos.ENOSPC)
	var gates1 int
	for _, body := range []string{
		permJob(0), permJob(1),
		`{"spec":{"bench":"rd53"},"budget":{"time_ms":30000,"steps":600000}}`,
	} {
		v := submitWait(t, ts.URL, body)
		if v.Result == nil || !v.Result.Found {
			t.Fatalf("round 1 job unsolved under cache ENOSPC: %+v", v)
		}
		if strings.Contains(body, "rd53") {
			gates1 = v.Result.Gates
		}
	}
	// The cache writer writes after a linger; the answers do not wait.
	s.waitCacheWrites()
	if st := domainState(t, ts.URL, DomainCache); st != "open" {
		t.Fatalf("cache domain = %q after ENOSPC Puts, want open", st)
	}
	if w, _ := cfs.InjectedErrors(); w == 0 {
		t.Fatal("chaos FS injected no write errors — the fault never bit")
	}

	// --- Round 2: device heals. The next store is the half-open probe;
	// its success re-closes the domain.
	cfs.Heal(cacheDir)
	time.Sleep(2 * fastBreakers.BaseBackoff)
	submitWait(t, ts.URL, permJob(2))
	waitFor(t, func() bool { return domainState(t, ts.URL, DomainCache) == "closed" },
		"cache domain to re-close after heal")

	// --- Round 3: state device throws EIO while a miscompile forces a
	// quarantine write. The write fails, the evidence lands in the log,
	// the domain trips — and the client still gets a verified result from
	// the degraded re-run.
	cfs.Fail(stateDir, chaos.EIO)
	corruptNext.Store(true)
	v := submitWait(t, ts.URL, permJob(3))
	if !v.Degraded {
		t.Fatalf("miscompiled job not rerun degraded: %+v", v)
	}
	if st := domainState(t, ts.URL, DomainQuarantine); st != "open" {
		t.Fatalf("quarantine domain = %q after EIO write, want open", st)
	}
	if files, _ := filepath.Glob(filepath.Join(stateDir, "quarantine-*.json")); len(files) != 0 {
		t.Fatalf("quarantine artifact landed on a sick device: %v", files)
	}
	if !logs.contains("artifact follows") {
		t.Error("failed quarantine write did not dump the artifact to the log")
	}

	// --- Round 4: heal everything; a second miscompile probes the domain
	// shut and this time the artifact reaches disk.
	cfs.HealAll()
	time.Sleep(2 * fastBreakers.BaseBackoff)
	corruptNext.Store(true)
	v = submitWait(t, ts.URL, permJob(4))
	if !v.Degraded {
		t.Fatalf("second miscompiled job not rerun degraded: %+v", v)
	}
	waitFor(t, func() bool { return domainState(t, ts.URL, DomainQuarantine) == "closed" },
		"quarantine domain to re-close after heal")
	if files, _ := filepath.Glob(filepath.Join(stateDir, "quarantine-*.json")); len(files) == 0 {
		t.Fatal("no quarantine artifact after the device healed")
	}

	// --- Determinism across the whole soak: the same benchmark re-run
	// after every fault resolves to the same circuit size.
	v = submitWait(t, ts.URL,
		`{"spec":{"bench":"rd53"},"budget":{"time_ms":30000,"steps":600001}}`)
	if v.Result == nil || !v.Result.Found {
		t.Fatalf("final rd53 unsolved: %+v", v)
	}
	if !v.Result.CacheHit && v.Result.Gates != gates1 {
		t.Errorf("rd53 gates drifted across the soak: %d then %d", gates1, v.Result.Gates)
	}

	// No submission lost: every job this test created is terminal.
	_, body := getURL(t, ts.URL+"/v1/healthz")
	hv := decodeHealth(t, body)
	if hv.Status != "ok" {
		t.Errorf("end-of-soak status = %q, want ok (all domains healed)", hv.Status)
	}
	for _, name := range DomainNames() {
		if d := domainView(t, hv, name); d.State == "open" {
			t.Errorf("domain %s still open at end of soak", name)
		}
	}
}

// TestEnospcMidDrainRestartsClean fills the state device exactly when the
// drain ledger must be written. The drain reports the failure, every job
// still reaches a terminal state, nothing torn is left behind, and a
// restart against the same directory comes up clean and empty.
func TestEnospcMidDrainRestartsClean(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")
	cfs := chaos.New(nil)
	logs := &chaosLog{}
	release := make(chan struct{})
	defer close(release)
	s, ts := startTestServer(t, Config{
		Workers:      1,
		StateDir:     stateDir,
		FS:           cfs,
		HealthConfig: fastBreakers,
		Logf:         logs.logf,
		Runner:       blockingRunner(release),
	})

	// One running job, one queued behind it — both unfinished at drain.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs",
			fmt.Sprintf(`{"spec":{"bench":"rd53"},"budget":{"steps":%d}}`, 700000+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d; %s", i, resp.StatusCode, body)
		}
	}
	waitFor(t, func() bool { return s.running.Load() == 1 }, "worker to pick up a job")

	cfs.Fail(stateDir, chaos.ENOSPC)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.Drain(ctx)
	if err == nil || !strings.Contains(err.Error(), "ledger") {
		t.Fatalf("Drain under ENOSPC = %v, want ledger write error", err)
	}

	// Both jobs are terminal — interrupted, not lost in limbo.
	st := s.Stats()
	if st.Interrupted != 2 {
		t.Fatalf("Interrupted = %d, want 2", st.Interrupted)
	}
	if got := s.DomainViews(); len(got) > 0 {
		for _, d := range got {
			if d.Name == DomainLedger && d.State != "open" {
				t.Errorf("ledger domain = %q after failed drain write, want open", d.State)
			}
		}
	}

	// Nothing torn on disk: no ledger, no stray temp files.
	cfs.HealAll()
	if files, _ := filepath.Glob(filepath.Join(stateDir, "*")); len(files) != 0 {
		t.Fatalf("failed drain left files behind: %v", files)
	}

	// A restart against the same directory starts clean.
	s2, err := New(Config{Workers: 1, StateDir: stateDir, FS: cfs})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if n := s2.Stats().Recovered; n != 0 {
		t.Errorf("restart recovered %d jobs from a never-written ledger", n)
	}
	if notes := s2.RecoveryNotes(); len(notes) != 0 {
		t.Errorf("restart not clean: %v", notes)
	}
	s2.Start()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	s2.Drain(ctx2)
}
