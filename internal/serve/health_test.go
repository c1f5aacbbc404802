package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/health"
)

// fastBreakers is a breaker config that trips on one failure and probes
// almost immediately — degraded-path tests should not sleep for real.
var fastBreakers = health.Config{
	Threshold:   1,
	BaseBackoff: 10 * time.Millisecond,
	MaxBackoff:  50 * time.Millisecond,
	NoJitter:    true,
}

func decodeHealth(t *testing.T, body []byte) healthView {
	t.Helper()
	var hv healthView
	if err := json.Unmarshal(body, &hv); err != nil {
		t.Fatalf("unmarshal healthz: %v\n%s", err, body)
	}
	return hv
}

func domainView(t *testing.T, hv healthView, name string) health.View {
	t.Helper()
	for _, d := range hv.Domains {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("domain %q not in healthz: %+v", name, hv.Domains)
	return health.View{}
}

func TestHealthzListsAllDomainsClosed(t *testing.T) {
	_, ts := startTestServer(t, Config{Workers: 1})
	resp, body := getURL(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	hv := decodeHealth(t, body)
	if hv.Status != "ok" {
		t.Errorf("status = %q, want ok", hv.Status)
	}
	if len(hv.Domains) != len(DomainNames()) {
		t.Fatalf("%d domains, want %d", len(hv.Domains), len(DomainNames()))
	}
	for _, name := range DomainNames() {
		if d := domainView(t, hv, name); d.State != "closed" {
			t.Errorf("domain %s = %q, want closed", name, d.State)
		}
	}
}

func TestReadyzGatesOnRequiredDomainsOnly(t *testing.T) {
	s, ts := startTestServer(t, Config{
		Workers:         1,
		RequiredDomains: []string{DomainCheckpoint},
		HealthConfig:    fastBreakers,
	})
	resp, _ := getURL(t, ts.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh readyz = %d, want 200", resp.StatusCode)
	}

	// An OPTIONAL domain opening degrades healthz but keeps readyz 200.
	s.domCache.Trip(os.ErrPermission)
	resp, body := getURL(t, ts.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with optional domain open = %d, want 200", resp.StatusCode)
	}
	_, hbody := getURL(t, ts.URL+"/v1/healthz")
	if hv := decodeHealth(t, hbody); hv.Status != "degraded" {
		t.Errorf("healthz status = %q, want degraded", hv.Status)
	}

	// The REQUIRED domain opening flips readyz to 503 with the domain name.
	s.domCkpt.Trip(os.ErrPermission)
	resp, body = getURL(t, ts.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with required domain open = %d, want 503", resp.StatusCode)
	}
	var rv readyView
	if err := json.Unmarshal(body, &rv); err != nil || rv.Ready || rv.Reason != DomainCheckpoint {
		t.Fatalf("readyz body = %s (err %v), want ready=false reason=checkpoint", body, err)
	}
	// The views list every domain in DomainNames order, each with its own
	// required flag.
	for i, v := range s.DomainViews() {
		if name := DomainNames()[i]; v.Name != name || v.Required != (name == DomainCheckpoint) {
			t.Errorf("view %d = %+v, want %s, required only for checkpoint", i, v, name)
		}
	}

	// Heal: a successful probe outcome re-closes both; readyz recovers.
	time.Sleep(2 * fastBreakers.BaseBackoff)
	if !s.domCkpt.Allow() {
		t.Fatal("checkpoint probe not admitted after backoff")
	}
	s.domCkpt.Record(nil)
	resp, _ = getURL(t, ts.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after heal = %d, want 200", resp.StatusCode)
	}
}

func TestReadyz503WhileDraining(t *testing.T) {
	s, ts := startTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body := getURL(t, ts.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	var rv readyView
	if err := json.Unmarshal(body, &rv); err != nil || rv.Reason != "draining" {
		t.Fatalf("readyz body = %s, want reason=draining", body)
	}
}

func TestUnusableCacheDirDegradesToMemoryCache(t *testing.T) {
	// A file where the cache directory should be: MkdirAll fails even for
	// root, which chmod-based permission tricks do not.
	parent := t.TempDir()
	blocker := filepath.Join(parent, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := startTestServer(t, Config{
		Workers:      1,
		CacheDir:     filepath.Join(blocker, "cache"),
		HealthConfig: fastBreakers,
	})

	notes := s.RecoveryNotes()
	if len(notes) == 0 || !strings.Contains(notes[0], "cache dir unusable") {
		t.Fatalf("recovery notes = %v, want cache-dir note", notes)
	}
	_, body := getURL(t, ts.URL+"/v1/healthz")
	if d := domainView(t, decodeHealth(t, body), DomainCache); d.State != "open" {
		t.Errorf("cache domain = %q, want open", d.State)
	}

	// The service still synthesizes — and the memory-only fallback still
	// deduplicates repeat work within the process.
	resp, _ := postJSON(t, ts.URL+"/v1/jobs?wait=1",
		`{"spec":{"bench":"rd32"},"budget":{"time_ms":30000}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit with degraded cache = %d, want 200", resp.StatusCode)
	}
}

func TestUnusableStateDirDegradesNotFails(t *testing.T) {
	parent := t.TempDir()
	blocker := filepath.Join(parent, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := startTestServer(t, Config{
		Workers:         1,
		StateDir:        filepath.Join(blocker, "state"),
		RequiredDomains: []string{DomainCheckpoint},
		HealthConfig:    fastBreakers,
	})
	notes := s.RecoveryNotes()
	if len(notes) == 0 || !strings.Contains(notes[0], "state dir unusable") {
		t.Fatalf("recovery notes = %v, want state-dir note", notes)
	}

	// Degradation is visible: checkpoint (required here) and ledger open.
	resp, _ := getURL(t, ts.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503 (required checkpoint domain open)", resp.StatusCode)
	}
	_, body := getURL(t, ts.URL+"/v1/healthz")
	hv := decodeHealth(t, body)
	for _, name := range []string{DomainCheckpoint, DomainLedger} {
		if d := domainView(t, hv, name); d.State != "open" {
			t.Errorf("domain %s = %q, want open", name, d.State)
		}
	}

	// The job still gets served; checkpoint writes fast-fail inside the
	// engine without stopping the search.
	resp, body = postJSON(t, ts.URL+"/v1/jobs?wait=1",
		`{"spec":{"bench":"rd32"},"budget":{"time_ms":30000}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit with degraded state dir = %d, want 200; body: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil || v.Result == nil || !v.Result.Found {
		t.Fatalf("degraded-mode job did not solve: %s", body)
	}
}

func TestRateLimitShedsPerClient(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, ts := startTestServer(t, Config{
		Workers:   1,
		Runner:    blockingRunner(release),
		RateLimit: 0.001, // one token, then an ~17-minute refill
		RateBurst: 1,
	})

	submit := func(clientID, pla string) *http.Response {
		t.Helper()
		body := `{"spec":{"bench":"rd32"},"class":"batch"}`
		req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if clientID != "" {
			req.Header.Set("X-Client-ID", clientID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Client A spends its token, then sheds.
	if resp := submit("client-a", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	resp := submit("client-a", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Client B is unaffected: fairness is per client, not global.
	if resp := submit("client-b", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other client's submit = %d, want 202", resp.StatusCode)
	}
	if got := s.Stats().RateLimited; got != 1 {
		t.Errorf("RateLimited = %d, want 1", got)
	}
}

// TestClientDisconnectCancelsInteractiveJob proves the satellite contract:
// a waiting interactive client disconnecting cancels the running search
// (the worker frees up), while async submissions and batch jobs are never
// canceled by disconnects.
func TestClientDisconnectCancelsInteractiveJob(t *testing.T) {
	started := make(chan struct{}, 8)
	canceled := make(chan struct{}, 8)
	s, ts := startTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, j *Job) core.Result {
			started <- struct{}{}
			select {
			case <-ctx.Done():
				canceled <- struct{}{}
				return core.Result{StopReason: core.StopCanceled}
			case <-time.After(20 * time.Second):
				return core.Result{StopReason: core.StopStepLimit}
			}
		},
	})

	// A waiting interactive submission whose client goes away.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs?wait=1",
		strings.NewReader(`{"spec":{"bench":"rd32"}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
	cancel() // client disconnects
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("worker context not canceled after client disconnect")
	}
	<-errc
	waitFor(t, func() bool { return s.Stats().DisconnectCancels == 1 }, "disconnect cancel counted")

	// A canceled-and-unfound job is not a dedup target: the same request
	// submitted again runs fresh.
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", `{"spec":{"bench":"rd32"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after cancel = %d, want 202", resp.StatusCode)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("resubmitted job never started — deduplicated against the canceled one")
	}

	// That second submission was async (no ?wait): pinned, so nothing can
	// cancel it; and batch submissions are immune by class. Drain cleans up.
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestAsyncSubmitIsPinnedAgainstDisconnect(t *testing.T) {
	started := make(chan struct{}, 4)
	block := make(chan struct{})
	defer close(block)
	s, ts := startTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, j *Job) core.Result {
			started <- struct{}{}
			select {
			case <-ctx.Done():
				return core.Result{StopReason: core.StopCanceled}
			case <-block:
				return core.Result{StopReason: core.StopStepLimit}
			}
		},
	})

	// Async submit, then a waiting duplicate that disconnects: the async
	// submitter still owns the job, so no cancellation fires.
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"spec":{"bench":"rd32"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit = %d; %s", resp.StatusCode, body)
	}
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs?wait=1",
		strings.NewReader(`{"spec":{"bench":"rd32"}}`))
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		_ = err
		close(done)
	}()
	time.Sleep(50 * time.Millisecond) // let the duplicate attach as a watcher
	cancel()
	<-done
	time.Sleep(50 * time.Millisecond)
	if got := s.Stats().DisconnectCancels; got != 0 {
		t.Fatalf("DisconnectCancels = %d, want 0 (job was pinned by the async submit)", got)
	}
}
