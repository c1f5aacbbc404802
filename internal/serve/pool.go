package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/verify"
)

// worker is one pool goroutine: dequeue, execute, repeat until drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.Dequeue()
		if !ok {
			return
		}
		s.execute(j)
	}
}

// execute runs one job to a terminal state. The per-job deadline is
// enforced twice: the engine's own TimeLimit stops the search with
// StopDeadline, and a slightly larger context deadline backstops it (and
// any injected test runner) so a wedged run cannot hold the worker past its
// budget. Panics from the runner seam are isolated into a failed job, never
// a dead worker.
//
// Every found circuit must clear the independent verification gate before
// the client sees it. A gate failure is an engine bug surfacing in
// production: the evidence is quarantined, the counters bump, and the job
// gets exactly one graceful-degradation re-run with the optimizers disabled
// before it is failed with a 500 — never a wrong 200.
func (s *Server) execute(j *Job) {
	s.running.Add(1)
	defer s.running.Add(-1)
	j.markRunning(time.Now())

	var res core.Result
	for _, attempt := range []string{"primary", "degraded"} {
		res = s.attempt(j)
		if s.draining.Load() && res.Err == nil && res.StopReason == core.StopCanceled && s.cfg.StateDir != "" {
			// A drain canceled a resumable search, and the engine has
			// flushed its final checkpoint: park the job for the ledger.
			s.stats.interrupted.Add(1)
			j.interrupt()
			return
		}
		verr := s.gateError(j, &res)
		if verr == nil {
			break
		}
		s.stats.verifyFailures.Add(1)
		path := s.quarantine(j, verr, attempt)
		if attempt == "degraded" {
			s.settle(j, StatusFailed, res, fmt.Sprintf("verification failed after degraded re-run: %v", verr))
			return
		}
		note := "independent verification failed"
		if path != "" {
			note += "; evidence quarantined to " + path
		}
		j.setDegraded(note + "; retrying degraded (optimizers disabled)")
		s.stats.degradedReruns.Add(1)
	}
	if res.Err != nil {
		s.settle(j, StatusFailed, res, res.Err.Error())
		return
	}
	// Insert, hand the durable write to the cache writer, then answer:
	// neither the answer nor the worker's next job waits for an fsync, the
	// write is pending by the time the answer is out, and the writer,
	// counted in s.wg, keeps Drain's wait covering it.
	s.persistLater(s.cacheStore(j, &res))
	s.settle(j, StatusDone, res, "")
}

// settle ends a job the pool ran: it counts the outcome, removes the
// checkpoint — before finish wakes the waiters, so a finished job never
// still has one on disk — and records the result.
func (s *Server) settle(j *Job, status JobStatus, res core.Result, errMsg string) {
	if status == StatusFailed {
		s.stats.failed.Add(1)
	} else {
		s.stats.completed.Add(1)
	}
	s.removeCheckpoint(j)
	j.finish(status, res, errMsg, time.Now())
}

// backstopGrace is how far past its TimeLimit a job's context deadline
// lies: the engine stops itself at TimeLimit, so the backstop only fires
// for a run that ignores its budget. Tests that wedge a runner lower it.
var backstopGrace = 5 * time.Second

// attempt runs the job once under its own deadline-backstopped context, so
// a degraded re-run gets a fresh time budget instead of the tail of the
// first attempt's. The context also cancels when the last waiting client
// of an unpinned interactive job disconnects (Job.dropWatcher) — the
// TimeLimit+backstopGrace backstop stays in force either way.
func (s *Server) attempt(j *Job) core.Result {
	ctx := s.drainCtx
	if tl := j.c.opts.TimeLimit; tl > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, tl+backstopGrace)
		defer cancel()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func(done <-chan struct{}) {
		select {
		case <-j.abortCh():
			cancel()
		case <-done:
		}
	}(ctx.Done())
	return s.invoke(ctx, j)
}

// gateError decides whether a result is a verification failure. Two ways
// in: the engine's own always-on gate already withdrew the circuit (the
// typed *verify.Error rides in res.Err), or the server's second, fully
// independent check against the tabulated function finds a mismatch the
// engine-side gate missed (possible only through the Runner test seam or a
// bug in the gate itself — exactly what an independent check is for). In
// the second case the circuit is withdrawn here so no later path can hand
// it to a client. The check covers every width verify tabulates: a PPRM
// request too wide for admission to tabulate (17–20 variables) is
// checked here, in the worker, so admission cost does not grow.
func (s *Server) gateError(j *Job, res *core.Result) *verify.Error {
	var verr *verify.Error
	if errors.As(res.Err, &verr) {
		return verr
	}
	if res.Err != nil || !res.Found || res.Circuit == nil {
		return nil
	}
	if !verify.Feasible(j.c.spec.N) {
		return nil
	}
	// A PPRM request has no tabulated function: check it against the
	// expansion with verify's own evaluator, never pprm's ToPerm, which the
	// oracle is defined not to share.
	var err error
	if p := j.c.perm; p != nil {
		err = verify.Circuit(verify.StageSearch, res.Circuit, p)
	} else {
		err = verify.Spec(verify.StageSearch, res.Circuit, j.c.spec)
	}
	if err != nil && errors.As(err, &verr) {
		res.Found = false
		res.Circuit = nil
		res.Verified = false
		res.StopReason = core.StopVerifyFailed
		res.Err = verr
		return verr
	}
	return nil
}

// invoke runs the configured runner (the real engine by default) with
// panic isolation.
func (s *Server) invoke(ctx context.Context, j *Job) (res core.Result) {
	defer func() {
		if r := recover(); r != nil {
			res = core.Result{
				StopReason: core.StopInternalError,
				Err:        fmt.Errorf("serve: job runner panicked: %v", r),
			}
		}
	}()
	if s.cfg.Runner != nil {
		return s.cfg.Runner(ctx, j)
	}
	return s.realRun(ctx, j)
}

// claimSearchWorkers decides how many parallel-search workers the job
// being executed may claim from the pool's SearchWorkers core budget.
// With shallow queues the latency win of the det-merge engine is free —
// the cores would otherwise idle; each waiting job dilutes the claim down
// to one worker. It never drops to 0: Workers 0 is the sequential search,
// a different trajectory family with a different options fingerprint, so
// switching to it under load would change the answer to the same request
// and orphan its drain checkpoint (det-merge at one worker is no slower
// than the sequential search; see BENCH_parallel.json). Returns 0 only
// when parallel search is off (SearchWorkers ≤ 1).
func (s *Server) claimSearchWorkers() int {
	total := s.cfg.SearchWorkers
	if total <= 1 {
		return 0
	}
	qi, qb := s.queue.Depths()
	return max(1, total/(1+qi+qb))
}

// searchOptions builds the engine options realRun runs j under.
func (s *Server) searchOptions(j *Job) core.Options {
	opts := j.c.opts
	if j.isDegraded() {
		opts = opts.Degraded()
	}
	opts.Observe = j.run
	// Parallel search is always the deterministic-merge engine here, at
	// one worker or more: the worker count does not enter the options
	// fingerprint, so cached answers and drain checkpoints stay valid
	// whatever the queue depth was when the job (or its resume) happened
	// to run.
	opts.Workers = s.claimSearchWorkers()
	if s.cfg.StateDir != "" {
		opts.Checkpoint = core.Checkpoint{
			Path:       s.checkpointPath(j.id),
			Interval:   s.cfg.CheckpointInterval,
			EverySteps: s.cfg.CheckpointEverySteps,
			// Writes go through the checkpoint fault domain: a sick disk
			// trips the breaker and later snapshots fast-fail with no
			// syscall until a probe heals it. The engine already treats a
			// failed snapshot as "resumability degrades, the search goes
			// on" (Result.CheckpointErrors counts them).
			FS: s.ckptFS,
		}
	}
	return opts
}

// realRun executes the job on the RMRLS engine: checkpointing into the
// state directory when one is configured, resuming from a recovered drain
// checkpoint when present, and degrading a broken checkpoint to a fresh
// start (the resume contract: every resume error means "start fresh").
func (s *Server) realRun(ctx context.Context, j *Job) core.Result {
	opts := s.searchOptions(j)
	if st := j.resume; st != nil {
		j.resume = nil
		res, err := core.ResumeStateContext(ctx, j.c.spec, opts, st)
		if err == nil {
			j.mu.Lock()
			j.resumed = true
			j.mu.Unlock()
			return res
		}
		j.mu.Lock()
		j.note = fmt.Sprintf("checkpoint unusable (%v); restarted fresh", err)
		j.mu.Unlock()
	}
	return core.SynthesizeContext(ctx, j.c.spec, opts)
}
