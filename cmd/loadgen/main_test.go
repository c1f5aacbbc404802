package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestRunAgainstRealServer: a small random workload against a real rmrlsd
// core must solve, pass the client-side re-check, and exit 0.
func TestRunAgainstRealServer(t *testing.T) {
	s, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})

	var out, errb bytes.Buffer
	addr := strings.TrimPrefix(ts.URL, "http://")
	code := run([]string{"-addr", addr, "-n", "4", "-c", "2", "-vars", "3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "verifyfail=1") {
		t.Errorf("verification failures against a healthy server:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "verifyfail=0") {
		t.Errorf("report does not include the verification column:\n%s", out.String())
	}
}

// TestRunCatchesLyingServer: a stub that returns a solved response whose
// gate count disagrees with the returned cascade must be caught by the
// client-side re-check and fail the run.
func TestRunCatchesLyingServer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// gates=2 but the cascade has one gate: an always-detectable lie,
		// independent of which random function the client asked for.
		w.Write([]byte(`{"id":"bogus","status":"done","result":{"found":true,"stop":"solved","circuit":"TOF1(a)","gates":2}}`))
	}))
	defer ts.Close()

	var out, errb bytes.Buffer
	addr := strings.TrimPrefix(ts.URL, "http://")
	code := run([]string{"-addr", addr, "-n", "1", "-vars", "2"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "reported gates=2") {
		t.Errorf("stderr does not name the gate-count mismatch: %s", errb.String())
	}
	if !strings.Contains(out.String(), "verifyfail=1") {
		t.Errorf("report does not count the verification failure:\n%s", out.String())
	}
}

// TestReportSplitsColdAndHitAtMicrosecondPrecision: sub-millisecond cache
// hits must not round to 0s, and cold answers and hits get their own
// percentile lines per class.
func TestReportSplitsColdAndHitAtMicrosecondPrecision(t *testing.T) {
	us := time.Microsecond
	stats := map[string]*classStats{
		"interactive": {
			cold: []time.Duration{4200 * us, 3100 * us, 5900 * us},
			hit:  []time.Duration{180 * us, 151 * us, 149 * us, 612 * us},
		},
		"batch": {cold: []time.Duration{82*time.Millisecond + 345*us}},
	}
	stats["interactive"].counts[outSolved] = 7
	stats["batch"].counts[outSolved] = 1
	var out bytes.Buffer
	if report(&out, stats, time.Second) {
		t.Fatalf("report flagged a failure:\n%s", out.String())
	}
	got := out.String()
	for _, want := range []string{
		"interactive  cold   n=3    p50=4.2ms p90=5.9ms p99=5.9ms\n",
		"interactive  hit    n=4    p50=151µs p90=612µs p99=612µs\n",
		"batch        cold   n=1    p50=82.345ms p90=82.345ms p99=82.345ms\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "batch        hit") {
		t.Errorf("report printed a hit line for a class without hits:\n%s", got)
	}
	if strings.Contains(got, "=0s") {
		t.Errorf("a latency rounded to zero:\n%s", got)
	}
}

// TestRunFilesJoinedRepliesApart: a reply the server marks deduplicated
// (it joined a job already held) is reported on its own joined line and
// never in cold, whether or not the joined job found a circuit.
func TestRunFilesJoinedRepliesApart(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch calls.Add(1) % 3 {
		case 0: // a fresh search
			w.Write([]byte(`{"id":"a","status":"done","result":{"found":true,"stop":"solved","circuit":"TOF3(c,b,a) TOF3(c,a,b) TOF3(c,b,a)","gates":3}}`))
		case 1: // joined a finished job
			w.Write([]byte(`{"id":"a","status":"done","deduplicated":true,"result":{"found":true,"stop":"solved","circuit":"TOF3(c,b,a) TOF3(c,a,b) TOF3(c,b,a)","gates":3}}`))
		default: // joined a job that ran out of budget
			w.Write([]byte(`{"id":"b","status":"done","deduplicated":true,"result":{"found":false,"stop":"step-limit"}}`))
		}
	}))
	defer ts.Close()

	var out, errb bytes.Buffer
	addr := strings.TrimPrefix(ts.URL, "http://")
	code := run([]string{"-addr", addr, "-n", "6", "-c", "1", "-batch-frac", "0", "-bench", "fredkin3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	got := out.String()
	for _, want := range []string{"interactive  cold   n=2 ", "interactive  joined n=4 "} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}
