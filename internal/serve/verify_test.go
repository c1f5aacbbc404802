package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bits"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/verify"
)

// corruptingRunner wraps the real engine and appends an unconditional NOT
// to the found circuit on the attempts selected by corrupt — fabricating
// exactly the miscompile the server-side independent gate exists to catch
// (the result still claims Verified, as a buggy engine would).
func corruptingRunner(srv **Server, attempts *atomic.Int64, corrupt func(attempt int64) bool) func(context.Context, *Job) core.Result {
	return func(ctx context.Context, j *Job) core.Result {
		n := attempts.Add(1)
		res := (*srv).realRun(ctx, j)
		if corrupt(n) && res.Found && res.Circuit != nil {
			res.Circuit.Append(circuit.Gate{Target: 0})
		}
		return res
	}
}

func readQuarantine(t *testing.T, path string) QuarantineArtifact {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("quarantine artifact unreadable: %v", err)
	}
	var art QuarantineArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("quarantine artifact is not valid JSON: %v\n%s", err, data)
	}
	return art
}

// TestVerifyDegradedRerunRecovers: the first attempt returns a corrupt
// circuit, the degraded re-run a correct one. The client must get a
// verified 200, the evidence must be quarantined, and the counters must
// record exactly one failure and one re-run.
func TestVerifyDegradedRerunRecovers(t *testing.T) {
	stateDir := t.TempDir()
	var srv *Server
	var attempts atomic.Int64
	cfg := Config{
		Workers:  1,
		StateDir: stateDir,
		Runner:   corruptingRunner(&srv, &attempts, func(n int64) bool { return n == 1 }),
	}
	s, ts := startTestServer(t, cfg)
	srv = s

	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1",
		`{"spec":{"bench":"rd32"},"budget":{"time_ms":30000}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if v.Status != string(StatusDone) {
		t.Errorf("status = %q, want done", v.Status)
	}
	if !v.Degraded {
		t.Error("job not marked degraded")
	}
	if !strings.Contains(v.Note, "quarantined") || !strings.Contains(v.Note, "degraded") {
		t.Errorf("note does not explain the re-run: %q", v.Note)
	}
	if v.Result == nil || !v.Result.Found {
		t.Fatalf("degraded re-run produced no circuit: %+v", v.Result)
	}
	if v.Result.Verified == nil || !*v.Result.Verified {
		t.Errorf("recovered circuit not verified: %v", v.Result.Verified)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2 (primary + one degraded re-run)", got)
	}

	st := s.Stats()
	if st.VerifyFailures != 1 || st.DegradedReruns != 1 {
		t.Errorf("stats = %d failures / %d reruns, want 1/1", st.VerifyFailures, st.DegradedReruns)
	}
	if st.Failed != 0 || st.Completed != 1 {
		t.Errorf("failed=%d completed=%d, want 0/1", st.Failed, st.Completed)
	}

	art := readQuarantine(t, s.quarantinePath(s.mustJob(t, v.ID), "primary"))
	if art.JobID != v.ID || art.Stage != string(verify.StageSearch) {
		t.Errorf("artifact identity: job=%q stage=%q", art.JobID, art.Stage)
	}
	if art.Circuit == "" || art.Mismatch == "" {
		t.Errorf("artifact missing evidence: circuit=%q mismatch=%q", art.Circuit, art.Mismatch)
	}
	if art.Request.Spec.Bench != "rd32" {
		t.Errorf("artifact lost the original request: %+v", art.Request)
	}
	if art.SpecHash == "" || art.OptionsFingerprint == "" {
		t.Errorf("artifact missing fingerprints: %+v", art)
	}
}

// mustJob fetches a registered job by ID for white-box assertions.
func (s *Server) mustJob(t *testing.T, id string) *Job {
	t.Helper()
	j, ok := s.job(id)
	if !ok {
		t.Fatalf("job %q not registered", id)
	}
	return j
}

// TestVerifyPersistentMiscompileFailsWith500: when the degraded re-run is
// corrupt too, the job must fail — 500, never a wrong 200 — with both
// attempts' evidence quarantined.
func TestVerifyPersistentMiscompileFailsWith500(t *testing.T) {
	stateDir := t.TempDir()
	var srv *Server
	var attempts atomic.Int64
	cfg := Config{
		Workers:  1,
		StateDir: stateDir,
		Runner:   corruptingRunner(&srv, &attempts, func(int64) bool { return true }),
	}
	s, ts := startTestServer(t, cfg)
	srv = s

	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1",
		`{"spec":{"bench":"rd32"},"budget":{"time_ms":30000}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if v.Status != string(StatusFailed) {
		t.Errorf("status = %q, want failed", v.Status)
	}
	if !strings.Contains(v.Error, "verification failed after degraded re-run") {
		t.Errorf("error does not name the gate: %q", v.Error)
	}
	if v.Result == nil || v.Result.Found || v.Result.Circuit != "" {
		t.Errorf("failed job leaked a circuit: %+v", v.Result)
	}
	if v.Result != nil && v.Result.Stop != core.StopVerifyFailed.String() {
		t.Errorf("stop = %q, want %q", v.Result.Stop, core.StopVerifyFailed)
	}

	st := s.Stats()
	if st.VerifyFailures != 2 || st.DegradedReruns != 1 {
		t.Errorf("stats = %d failures / %d reruns, want 2/1", st.VerifyFailures, st.DegradedReruns)
	}
	j := s.mustJob(t, v.ID)
	for _, attempt := range []string{"primary", "degraded"} {
		if _, err := os.Stat(s.quarantinePath(j, attempt)); err != nil {
			t.Errorf("missing %s quarantine artifact: %v", attempt, err)
		}
	}
}

// TestVerifyRechecksPPRMTooWideForAdmission: admission tabulates PPRM input
// only up to 16 variables, but the worker's independent re-check covers
// every width verify tabulates. A corrupt circuit for a 17-variable PPRM
// request must end in quarantine and a 500, not a wrong 200.
func TestVerifyRechecksPPRMTooWideForAdmission(t *testing.T) {
	const n = 17
	lines := make([]string, n)
	for i := range lines {
		lines[i] = bits.VarName(i) + "' = " + bits.VarName(i)
	}
	lines[0] += " ^ " + bits.VarName(n-1) // one CNOT

	stateDir := t.TempDir()
	var srv *Server
	var attempts atomic.Int64
	s, ts := startTestServer(t, Config{
		Workers:  1,
		StateDir: stateDir,
		Runner:   corruptingRunner(&srv, &attempts, func(int64) bool { return true }),
	})
	srv = s

	body, err := json.Marshal(Request{
		Spec:   SpecInput{PPRM: &PPRMInput{Vars: n, Text: strings.Join(lines, "\n")}},
		Budget: Budget{TimeMillis: 30000},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, ts.URL+"/v1/jobs?wait=1", string(body))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body: %s", resp.StatusCode, out)
	}
	var v JobView
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if v.Result == nil || v.Result.Found || v.Result.Circuit != "" {
		t.Errorf("failed job leaked a circuit: %+v", v.Result)
	}
	if st := s.Stats(); st.VerifyFailures != 2 || st.DegradedReruns != 1 {
		t.Errorf("stats = %d failures / %d reruns, want 2/1", st.VerifyFailures, st.DegradedReruns)
	}
	if _, err := os.Stat(s.quarantinePath(s.mustJob(t, v.ID), "primary")); err != nil {
		t.Errorf("missing quarantine artifact: %v", err)
	}
}

// TestVerifyInjectedMiscompileRealEngine drives the true production path:
// the engine-side fault hook corrupts every found circuit before the core
// gate, so the typed verification error (not a fabricated result) reaches
// the server, which must quarantine and fail with 500.
func TestVerifyInjectedMiscompileRealEngine(t *testing.T) {
	core.CorruptResultHook = func(c *circuit.Circuit) { c.Append(circuit.Gate{Target: 0}) }
	defer func() { core.CorruptResultHook = nil }()

	stateDir := t.TempDir()
	s, ts := startTestServer(t, Config{Workers: 1, StateDir: stateDir})

	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1",
		`{"spec":{"bench":"rd32"},"budget":{"time_ms":30000}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	art := readQuarantine(t, s.quarantinePath(s.mustJob(t, v.ID), "primary"))
	if art.Circuit == "" {
		t.Error("core-gate quarantine lost the rejected cascade")
	}
	if !strings.Contains(art.Mismatch, "maps input") {
		t.Errorf("mismatch not a counterexample: %q", art.Mismatch)
	}

	// Healthz reflects the gate counters for scrapers.
	hresp, hbody := getURL(t, ts.URL+"/v1/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", hresp.StatusCode)
	}
	var hv struct {
		Stats Stats `json:"stats"`
	}
	if err := json.Unmarshal(hbody, &hv); err != nil {
		t.Fatalf("unmarshal healthz: %v", err)
	}
	if hv.Stats.VerifyFailures != 2 || hv.Stats.DegradedReruns != 1 {
		t.Errorf("healthz stats = %d failures / %d reruns, want 2/1",
			hv.Stats.VerifyFailures, hv.Stats.DegradedReruns)
	}
}
