package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/snapshot"
)

// Config configures a Server. The zero value is usable: New fills every
// unset field with the documented default.
type Config struct {
	// Workers is the fixed worker-pool size (default 2). Each worker runs
	// one synthesis at a time; host memory budget ≈ Workers × Ceiling.MaxMemory.
	Workers int
	// SearchWorkers is the pool's parallel-search core budget. With it on,
	// every job runs the deterministic-merge engine: when the queues are
	// shallow, a dequeued job claims several of these cores; when jobs are
	// waiting, cores are better spent running more jobs concurrently and
	// the claim shrinks to one worker — never to the sequential engine,
	// whose different trajectory would change answers with load. 0 or 1
	// disables parallel search (every job runs the sequential engine).
	SearchWorkers int
	// QueueInteractive and QueueBatch cap the per-class job queues
	// (defaults 64 and 256). A full class sheds with 429 + Retry-After.
	QueueInteractive int
	QueueBatch       int
	// Ceiling clamps every request's budgets. Defaults: 60 s, 512 MiB;
	// steps and gates unlimited.
	Ceiling core.BudgetCeiling
	// StateDir, when non-empty, enables graceful drain: in-flight searches
	// checkpoint into it and unfinished jobs persist in a ledger that the
	// next start recovers. Empty disables drain persistence (jobs are
	// simply canceled).
	StateDir string
	// CacheDir, when non-empty, enables the canonical-form answer cache
	// (internal/cache) persisted under it: submissions whose class is
	// already solved under the same options fingerprint are answered
	// before they reach the queue, and every verified worker result is
	// stored for the next restart. Empty disables the cache. Its disk
	// traffic goes through FS behind the cache fault domain.
	CacheDir string
	// CheckpointInterval is the periodic checkpoint cadence for running
	// jobs (default 30 s); the drain flush happens regardless.
	CheckpointInterval time.Duration
	// CheckpointEverySteps switches running jobs to a deterministic
	// every-N-expansions checkpoint cadence (tests).
	CheckpointEverySteps int
	// RetryAfter is the base client back-off hint on shed and drain
	// responses (default 1 s); the hint grows with queue depth.
	RetryAfter time.Duration
	// FS overrides the filesystem checkpoint and ledger writes go through;
	// nil selects the real disk. The fault-injection tests crash it; the
	// chaos harness makes it persistently sick.
	FS snapshot.FS
	// Runner overrides how a job is executed — the test seam for overload
	// and scheduling tests. nil selects the real engine (realRun).
	Runner func(ctx context.Context, j *Job) core.Result
	// Health overrides the fault-domain supervisor (shared dashboards,
	// tests); nil builds a private one. The server registers its domains
	// (see DomainNames) on it either way.
	Health *health.Supervisor
	// HealthConfig tunes the per-domain breakers: failure threshold,
	// probe backoffs, clock. The zero value selects the health package
	// defaults (3 consecutive failures, 500 ms base, 30 s cap).
	HealthConfig health.Config
	// RequiredDomains lists fault domains whose open state must fail
	// /v1/readyz (default: none — every domain is optional, degradation
	// never takes the instance out of rotation).
	RequiredDomains []string
	// RateLimit enables per-client fairness: each client (X-Client-ID
	// header, else remote host) may submit at most this many jobs per
	// second, sustained; excess submissions shed with 429 + Retry-After.
	// Zero disables.
	RateLimit float64
	// RateBurst is the fairness bucket capacity — how many submissions a
	// quiet client may burst before the sustained rate applies (default:
	// one second's worth plus one).
	RateBurst int
	// Logf is the operational logger for events that must not be lost
	// when their durable path is down (quarantine artifacts, degraded
	// startup). nil selects log.Printf.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers <= 0 {
		out.Workers = 2
	}
	if out.QueueInteractive <= 0 {
		out.QueueInteractive = 64
	}
	if out.QueueBatch <= 0 {
		out.QueueBatch = 256
	}
	if out.Ceiling.MaxTime <= 0 {
		out.Ceiling.MaxTime = time.Minute
	}
	if out.Ceiling.MaxMemory <= 0 {
		out.Ceiling.MaxMemory = 512 << 20
	}
	if out.CheckpointInterval <= 0 {
		out.CheckpointInterval = 30 * time.Second
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = time.Second
	}
	if out.FS == nil {
		out.FS = snapshot.DiskFS
	}
	if out.Logf == nil {
		out.Logf = log.Printf
	}
	return out
}

// Stats are the server's monotonic counters, exposed on /v1/healthz.
// VerifyFailures counts circuits withdrawn by the independent verification
// gate (per attempt); DegradedReruns counts the graceful-degradation
// re-runs those failures triggered. Both should read zero on a healthy
// instance — a nonzero value means an engine bug reached production and
// there is a quarantine artifact to triage in the state directory.
type Stats struct {
	Submitted      int64 `json:"submitted"`
	Deduplicated   int64 `json:"deduplicated"`
	Shed           int64 `json:"shed"`
	Completed      int64 `json:"completed"`
	Failed         int64 `json:"failed"`
	Interrupted    int64 `json:"interrupted"`
	Recovered      int64 `json:"recovered"`
	VerifyFailures int64 `json:"verify_failures"`
	DegradedReruns int64 `json:"degraded_reruns"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	// RateLimited counts submissions shed by the per-client fairness
	// bucket (429 before the body was read).
	RateLimited int64 `json:"rate_limited"`
	// DisconnectCancels counts interactive searches canceled because
	// every waiting client disconnected before the result.
	DisconnectCancels int64 `json:"disconnect_cancels"`
}

// Server is the synthesis service: bounded queue, worker pool, job
// registry, drain machinery. Create with New, start workers with Start,
// mount Handler on an http.Server, stop with Drain.
type Server struct {
	cfg   Config
	queue *jobQueue
	cache *cache.Cache // nil: caching disabled

	// Fault-domain supervision (see health.go): per-domain breakers plus
	// the guarded filesystems checkpoint and quarantine writes go through.
	health *health.Supervisor
	domCache, domCkpt,
	domLedger, domQuar *health.Breaker
	ckptFS, quarFS snapshot.FS

	limiter *limiter // per-client fairness; nil when RateLimit is 0

	mu    sync.Mutex
	jobs  map[string]*Job // by ID (= idempotency key hex)
	byKey map[uint64]*Job

	running atomic.Int64
	stats   struct {
		submitted, deduped, shed, completed, failed, interrupted, recovered atomic.Int64
		verifyFailures, degradedReruns                                      atomic.Int64
		cacheHits, cacheMisses                                              atomic.Int64
		rateLimited, disconnectCancels                                      atomic.Int64
	}

	draining  atomic.Bool
	drainCtx  context.Context
	drainStop context.CancelFunc
	wg        sync.WaitGroup

	// warnings collected during recovery (unreadable ledger entries, ...).
	recoveryNotes []string
}

func jobID(key uint64) string { return fmt.Sprintf("%016x", key) }

// New builds a Server and, when cfg.StateDir is set, recovers the previous
// process's unfinished jobs from its drain ledger. Faults in the optional
// dependencies never fail the start — they degrade: an unusable cache
// directory falls back to a memory-only cache, an unusable state directory
// trips the checkpoint and ledger domains and disables resume for the
// window, damaged ledgers or checkpoints degrade to fewer recovered jobs
// or fresh re-runs. Everything shed is reported in RecoveryNotes and on
// the health endpoints.
func New(cfg Config) (*Server, error) {
	c := cfg.withDefaults()
	s := &Server{
		cfg:     c,
		queue:   newJobQueue(c.QueueInteractive, c.QueueBatch),
		jobs:    make(map[string]*Job),
		byKey:   make(map[uint64]*Job),
		limiter: newLimiter(c.RateLimit, c.RateBurst, nil),
	}
	s.initHealth()
	if c.CacheDir != "" {
		ac, err := cache.Open(c.CacheDir, health.GuardFS(c.FS, s.domCache))
		if err != nil {
			// The cache is a feature, not a dependency: serve without
			// persistence rather than refuse to start.
			s.recoveryNotes = append(s.recoveryNotes,
				fmt.Sprintf("cache dir unusable (%v); caching in memory only", err))
			s.domCache.Trip(err)
			ac = cache.New()
			c.Logf("serve: cache dir unusable (%v); caching in memory only", err)
		}
		s.cache = ac
	}
	s.drainCtx, s.drainStop = context.WithCancel(context.Background())
	if c.StateDir != "" {
		s.recover()
	}
	return s, nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// RecoveryNotes reports what the start-time ledger recovery skipped or
// degraded (empty on a clean start).
func (s *Server) RecoveryNotes() []string { return append([]string(nil), s.recoveryNotes...) }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Submitted:         s.stats.submitted.Load(),
		Deduplicated:      s.stats.deduped.Load(),
		Shed:              s.stats.shed.Load(),
		Completed:         s.stats.completed.Load(),
		Failed:            s.stats.failed.Load(),
		Interrupted:       s.stats.interrupted.Load(),
		Recovered:         s.stats.recovered.Load(),
		VerifyFailures:    s.stats.verifyFailures.Load(),
		DegradedReruns:    s.stats.degradedReruns.Load(),
		CacheHits:         s.stats.cacheHits.Load(),
		CacheMisses:       s.stats.cacheMisses.Load(),
		RateLimited:       s.stats.rateLimited.Load(),
		DisconnectCancels: s.stats.disconnectCancels.Load(),
	}
}

// job looks up a job by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// admit registers a compiled request, deduplicating by idempotency key.
// A request whose canonical class is already in the answer cache is
// registered as an already-finished job (source "cache") without touching
// the queue; everything else is enqueued for the worker pool. Returns the
// job and whether it was deduplicated.
func (s *Server) admit(c *compiled, req Request) (*Job, bool, error) {
	if existing, ok := s.dedup(c.key); ok {
		return existing, true, nil
	}

	// Cache probe outside the registry lock: a hit conjugates and
	// re-verifies the derived circuit by simulation, which should not
	// serialize unrelated admissions.
	if j := s.fromCache(c, req); j != nil {
		s.mu.Lock()
		if existing, ok := s.byKey[c.key]; ok && existing.Status() != StatusFailed && !existing.redoable() {
			// A concurrent identical submission won the registration race.
			s.mu.Unlock()
			s.stats.deduped.Add(1)
			return existing, true, nil
		}
		s.jobs[j.id] = j
		s.byKey[j.key] = j
		s.mu.Unlock()
		s.stats.submitted.Add(1)
		s.stats.completed.Add(1)
		return j, false, nil
	}

	s.mu.Lock()
	if existing, ok := s.byKey[c.key]; ok && existing.Status() != StatusFailed && !existing.redoable() {
		s.mu.Unlock()
		s.stats.deduped.Add(1)
		return existing, true, nil
	}
	j := newJob(c, req, time.Now())
	s.jobs[j.id] = j
	s.byKey[j.key] = j
	s.mu.Unlock()

	if err := s.queue.Enqueue(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.id)
		delete(s.byKey, j.key)
		s.mu.Unlock()
		return nil, false, err
	}
	s.stats.submitted.Add(1)
	return j, false, nil
}

// dedup returns the live job already registered under key, if any. Failed
// jobs and client-disconnect-canceled jobs without a circuit are not
// deduplication targets — a retry earns a fresh run.
func (s *Server) dedup(key uint64) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.byKey[key]; ok && existing.Status() != StatusFailed && !existing.redoable() {
		s.stats.deduped.Add(1)
		return existing, true
	}
	return nil, false
}

// retryAfter computes the client back-off hint: the base grows with how
// many dequeues stand between the client and a free worker.
func (s *Server) retryAfter(class Class) time.Duration {
	qi, qb := s.queue.Depths()
	depth := qi
	if class == Batch {
		depth += qb // batch waits behind every interactive job too
	}
	waves := 1 + depth/s.cfg.Workers
	return time.Duration(waves) * s.cfg.RetryAfter
}

// --- HTTP layer ---

// maxRequestBody caps the submit body size (PLA and PPRM texts included).
const maxRequestBody = 8 << 20

// errorBody is the JSON error envelope.
type errorBody struct {
	Error RequestError `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, field, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: *reqErr(field, format, args...)})
}

func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	// Ceiling, not nearest-second rounding: Retry-After is a promise about
	// when capacity should exist. Rounding 2.4 s of expected wait down to
	// 2 re-admits the client early, only to shed it again — under sustained
	// overload every retry wave came back ~17% hot. Never hint below 1 s.
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/jobs           submit (idempotent; ?wait or "wait":true blocks)
//	GET  /v1/jobs/{id}      job status and result
//	GET  /v1/jobs/{id}/stream  JSON-lines progress until the job finishes
//	GET  /v1/healthz        liveness, queue depths, counters, fault domains
//	GET  /v1/readyz         readiness: 503 while draining or a required
//	                        fault domain is open
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/readyz", s.handleReady)
	return mux
}

// httpStatusFor maps a finished job to the sync-path HTTP status: the typed
// StopReason decides. Solved-with-circuit is 200; a search that ran out of
// budget without a circuit is 422 (the request was valid, the budget was
// not enough); an internal abort is 500.
func httpStatusFor(j *Job) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusFailed:
		return http.StatusInternalServerError
	case StatusDone:
		if j.res.Found {
			return http.StatusOK
		}
		return http.StatusUnprocessableEntity
	default:
		return http.StatusOK
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		setRetryAfter(w, s.cfg.RetryAfter)
		writeError(w, http.StatusServiceUnavailable, "", "server is draining; retry against the restarted instance")
		return
	}
	// Per-client fairness, before the body is even read: an over-limit
	// client costs one map lookup, not a decode and a queue slot.
	if s.limiter != nil {
		if ok, wait := s.limiter.allow(clientKey(r)); !ok {
			s.stats.rateLimited.Add(1)
			setRetryAfter(w, wait)
			writeError(w, http.StatusTooManyRequests, "", "client rate limit exceeded (%g jobs/s); retry later", s.cfg.RateLimit)
			return
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "body", "request body exceeds %d bytes", int64(maxRequestBody))
			return
		}
		writeError(w, http.StatusBadRequest, "body", "invalid JSON: %v", err)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		req.Wait = true
	}

	c, rerr := compileRequest(&req, s.cfg.Ceiling)
	if rerr != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: *rerr})
		return
	}

	j, deduped, err := s.admit(c, req)
	if err != nil {
		var full *FullError
		switch {
		case errors.As(err, &full):
			s.stats.shed.Add(1)
			setRetryAfter(w, s.retryAfter(full.Class))
			writeError(w, http.StatusTooManyRequests, "", "%s queue is full (%d jobs); retry later", full.Class, full.Cap)
		default: // closed by a concurrent drain
			setRetryAfter(w, s.cfg.RetryAfter)
			writeError(w, http.StatusServiceUnavailable, "", "server is draining; retry against the restarted instance")
		}
		return
	}

	if !req.Wait {
		// An async submitter will come back for the result: pin the job so
		// no later watcher bookkeeping can cancel it.
		j.pin()
		writeJSON(w, http.StatusAccepted, j.view(deduped))
		return
	}
	j.addWatcher()
	select {
	case <-j.Done():
		j.dropWatcher() // after Done: never triggers an abort
	case <-r.Context().Done():
		// Client gave up. Batch jobs and jobs with other watchers (or an
		// async submitter) keep running — idempotent to re-ask. An
		// interactive job nobody is waiting for is canceled so the worker
		// serves clients that are still here; the engine returns
		// best-so-far, and a retry of the same request runs fresh.
		if j.dropWatcher() {
			s.stats.disconnectCancels.Add(1)
		}
		writeJSON(w, http.StatusAccepted, j.view(deduped))
		return
	}
	if j.Status() == StatusInterrupted {
		// A drain caught the job mid-run; it will resume after restart.
		setRetryAfter(w, s.cfg.RetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, j.view(deduped))
		return
	}
	writeJSON(w, httpStatusFor(j), j.view(deduped))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "id", "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.view(false))
}

// streamInterval is the progress-snapshot cadence of the stream endpoint.
const streamInterval = 250 * time.Millisecond

// handleStream writes JSON-lines progress for one job: one obs snapshot
// object per interval while the job runs, then a final {"job": ...} line.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "id", "no such job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func() bool {
		snap := j.Run().Snapshot(time.Now())
		if err := enc.Encode(&snap); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	ticker := time.NewTicker(streamInterval)
	defer ticker.Stop()
	for {
		if !emit() {
			return
		}
		select {
		case <-j.Done():
			emit()
			enc.Encode(map[string]JobView{"job": j.view(false)})
			if flusher != nil {
				flusher.Flush()
			}
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// healthView is the /v1/healthz body.
type healthView struct {
	Status            string `json:"status"` // "ok", "degraded", or "draining"
	Workers           int    `json:"workers"`
	Running           int64  `json:"running"`
	QueuedInteractive int    `json:"queued_interactive"`
	QueuedBatch       int    `json:"queued_batch"`
	Stats             Stats  `json:"stats"`
	// Domains are the fault-domain breaker views: state, trip/probe/
	// recovery counters, last error. A domain away from "closed" means
	// that feature is currently shed (see the health package).
	Domains []health.View `json:"domains"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	qi, qb := s.queue.Depths()
	status := "ok"
	if s.health.Degraded() {
		status = "degraded"
	}
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, healthView{
		Status:            status,
		Workers:           s.cfg.Workers,
		Running:           s.running.Load(),
		QueuedInteractive: qi,
		QueuedBatch:       qb,
		Stats:             s.Stats(),
		Domains:           s.health.Views(),
	})
}
