package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// blockingRunner returns a Runner that parks every job until release is
// closed (or the job's context is canceled), so tests can fill the queue
// deterministically.
func blockingRunner(release <-chan struct{}) func(context.Context, *Job) core.Result {
	return func(ctx context.Context, j *Job) core.Result {
		select {
		case <-release:
			return core.Result{Found: false, StopReason: core.StopStepLimit}
		case <-ctx.Done():
			return core.Result{Found: false, StopReason: core.StopCanceled}
		}
	}
}

// submitN posts n distinct async jobs of the given class, numbered from
// first, and returns the HTTP status codes observed.
func submitN(t *testing.T, url string, first, n int, class string) []int {
	t.Helper()
	codes := make([]int, 0, n)
	for i := first; i < first+n; i++ {
		// Distinct step budgets make every request a distinct job.
		body := fmt.Sprintf(`{"spec":{"bench":"rd32"},"class":%q,"budget":{"steps":%d}}`, class, 1000+i)
		resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	return codes
}

// fillBehindOneWorker submits four interactive jobs to a server with one
// blocked worker and an interactive queue of three, and fails unless all
// are accepted and three wait in the queue. It waits after the first
// submit until the worker has taken that job: otherwise the fourth can
// arrive while the first is still queued, and be shed.
func fillBehindOneWorker(t *testing.T, s *Server, url string) {
	t.Helper()
	codes := submitN(t, url, 0, 1, "interactive")
	waitForDepth(t, s, 0, 0)
	codes = append(codes, submitN(t, url, 1, 3, "interactive")...)
	for i, c := range codes {
		if c != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i, c)
		}
	}
	waitForDepth(t, s, 3, 0)
}

func TestQueueFullShedsWith429AndRetryAfter(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, ts := startTestServer(t, Config{
		Workers:          1,
		QueueInteractive: 3,
		QueueBatch:       2,
		Runner:           blockingRunner(release),
		RetryAfter:       2 * time.Second,
	})

	// Worker 1 grabs the first job; the next 3 fill the interactive queue.
	fillBehindOneWorker(t, s, ts.URL)

	// The 5th interactive submit must shed, with a Retry-After that grows
	// with the queue depth: (1 + 3/1) * 2s = 8s.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"spec":{"bench":"rd32"},"budget":{"steps":9999}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if ra != 8 {
		t.Errorf("Retry-After = %d, want 8 (depth-scaled)", ra)
	}

	// The queue never grew past its cap, and the shed is counted.
	if qi, _ := s.queue.Depths(); qi != 3 {
		t.Errorf("interactive depth = %d, want 3 (bounded)", qi)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", st.Shed)
	}

	// Batch has its own cap: 2 fit, the 3rd sheds.
	codes := submitN(t, ts.URL, 0, 3, "batch")
	want := []int{202, 202, 429}
	for i := range codes {
		if codes[i] != want[i] {
			t.Errorf("batch submit %d = %d, want %d", i, codes[i], want[i])
		}
	}
}

// TestRetryAfterCeilingRounding is the regression test for the
// depth-scaled hint rounding DOWN: with a 600 ms base and 3 jobs queued
// behind 1 worker the computed wait is (1+3/1)×600ms = 2.4 s, which
// Round(time.Second) truncated to 2 — clients came back ~17% early and
// were shed again. The header must carry the ceiling, 3.
func TestRetryAfterCeilingRounding(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, ts := startTestServer(t, Config{
		Workers:          1,
		QueueInteractive: 3,
		QueueBatch:       2,
		Runner:           blockingRunner(release),
		RetryAfter:       600 * time.Millisecond,
	})

	fillBehindOneWorker(t, s, ts.URL)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"spec":{"bench":"rd32"},"budget":{"steps":9999}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want %q (ceiling of 2.4s, not nearest-second 2)", ra, "3")
	}
}

func TestInteractiveDequeuesBeforeEarlierBatch(t *testing.T) {
	release := make(chan struct{}) // closed below, once the first job runs

	var mu sync.Mutex
	var order []string
	started := make(chan struct{}, 16)
	s, err := New(Config{
		Workers:          1,
		QueueInteractive: 8,
		QueueBatch:       8,
		Runner: func(ctx context.Context, j *Job) core.Result {
			mu.Lock()
			order = append(order, j.Class().String())
			mu.Unlock()
			started <- struct{}{}
			return blockingRunner(release)(ctx, j)
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Enqueue before starting the worker: batch first, then interactive.
	enqueue := func(class string, steps int) {
		t.Helper()
		body := fmt.Sprintf(`{"spec":{"bench":"rd32"},"class":%q,"budget":{"steps":%d}}`, class, steps)
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		c, rerr := compileRequest(&req, s.cfg.Ceiling)
		if rerr != nil {
			t.Fatalf("compile: %v", rerr)
		}
		if _, _, err := s.admit(c, req); err != nil {
			t.Fatalf("admit: %v", err)
		}
	}
	enqueue("batch", 1001)
	enqueue("batch", 1002)
	enqueue("interactive", 1003)
	enqueue("interactive", 1004)

	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})

	<-started // first job is running; release lets the rest flow
	close(release)
	for i := 0; i < 3; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("job %d never started", i+2)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	// All four jobs were queued before the worker started, so the dequeue
	// order is fully deterministic: both interactive jobs jump ahead of the
	// batch jobs that arrived first.
	want := []string{"interactive", "interactive", "batch", "batch"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

func TestPerJobDeadlineFires(t *testing.T) {
	// Real engine: hwb8 cannot finish in 150 ms, so the engine's own
	// TimeLimit stops it with StopDeadline and the job completes as
	// done/not-found (422 on the sync path).
	_, ts := startTestServer(t, Config{Workers: 1})
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1",
		`{"spec":{"bench":"hwb8"},"budget":{"time_ms":150}}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if v.Result == nil || v.Result.Stop != core.StopDeadline.String() {
		t.Fatalf("stop = %+v, want deadline", v.Result)
	}
	if elapsed > 10*time.Second {
		t.Errorf("deadline took %v to fire, want ~150ms", elapsed)
	}
}

func TestWedgedRunnerBackstopDeadline(t *testing.T) {
	// A runner that ignores its budget entirely: the context backstop
	// (TimeLimit + backstopGrace) must still reclaim the worker. The grace
	// is shortened so the test does not wait out the production 5 s; it is
	// restored after the server's own cleanup has stopped the workers.
	grace := backstopGrace
	t.Cleanup(func() { backstopGrace = grace })
	backstopGrace = 200 * time.Millisecond
	s, ts := startTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, j *Job) core.Result {
			<-ctx.Done() // simulates a search that only stops when forced
			return core.Result{StopReason: core.StopCanceled}
		},
	})
	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1",
		`{"spec":{"bench":"rd32"},"budget":{"time_ms":100}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body: %s", resp.StatusCode, body)
	}
	if n := s.running.Load(); n != 0 {
		t.Errorf("running = %d after backstop, want 0", n)
	}
}

func TestRunnerPanicIsIsolated(t *testing.T) {
	s, ts := startTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, j *Job) core.Result {
			panic("boom")
		},
	})
	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", `{"spec":{"bench":"rd32"}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if v.Status != string(StatusFailed) || v.Error == "" {
		t.Errorf("job = %s/%q, want failed with an error", v.Status, v.Error)
	}
	// The worker survived the panic: the next job still runs (and a failed
	// job is not deduplicated, so the retry really re-runs).
	resp2, _ := postJSON(t, ts.URL+"/v1/jobs?wait=1", `{"spec":{"bench":"rd32"}}`)
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("second submit = %d, want 500 (same panicking runner, fresh run)", resp2.StatusCode)
	}
	if st := s.Stats(); st.Failed != 2 || st.Deduplicated != 0 {
		t.Errorf("stats = %+v, want failed=2 deduplicated=0", st)
	}
}

func TestDrainingRejectsSubmitsWith503(t *testing.T) {
	s, ts := startTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", `{"spec":{"bench":"rd32"}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 without Retry-After")
	}

	// Health reports the drain.
	r2, body := getURL(t, ts.URL+"/v1/healthz")
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", r2.StatusCode)
	}
	var h healthView
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if h.Status != "draining" {
		t.Errorf("health status = %q, want draining", h.Status)
	}
}

// waitForDepth polls until the queue depths match (the workers dequeue
// asynchronously, so a fixed sleep would race).
func waitForDepth(t *testing.T, s *Server, wantI, wantB int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		qi, qb := s.queue.Depths()
		if qi == wantI && qb == wantB {
			return
		}
		time.Sleep(time.Millisecond)
	}
	qi, qb := s.queue.Depths()
	t.Fatalf("queue depths = %d/%d, want %d/%d", qi, qb, wantI, wantB)
}
