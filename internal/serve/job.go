package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	// StatusQueued: admitted, waiting for a worker.
	StatusQueued JobStatus = "queued"
	// StatusRunning: a worker is searching.
	StatusRunning JobStatus = "running"
	// StatusDone: the search completed (found or not — see the result's
	// stop reason).
	StatusDone JobStatus = "done"
	// StatusFailed: the search aborted on an internal error, or the found
	// circuit failed verification.
	StatusFailed JobStatus = "failed"
	// StatusInterrupted: a drain checkpointed the job mid-search; the next
	// server start resumes it.
	StatusInterrupted JobStatus = "interrupted"
)

// Job is one admitted synthesis request. Identity: the ID is the hex form
// of the idempotency key, so a retried submission finds its original job by
// construction and a restarted server re-creates jobs under their old IDs.
// Besides its ID, a Job stores facts only: what was asked (the compiled
// request) and what happened (status, result, timestamps, notes); the API
// view derives the rest.
type Job struct {
	id  string
	c   *compiled // immutable: spec, tabulated permutation, options, class, key
	req Request   // original request, persisted in the drain ledger

	run *obs.Run
	// resume holds the decoded drain checkpoint when the job was recovered
	// by a restart; the worker continues the search from it.
	resume *snapshot.State

	mu        sync.Mutex
	status    JobStatus
	res       core.Result
	errMsg    string
	note      string // operational note: resume fallback, clamp summary, ...
	resumed   bool
	degraded  bool // verification failure triggered a degraded re-run
	submitted time.Time
	started   time.Time
	finished  time.Time

	// Client-disconnect cancellation (interactive jobs only): watchers
	// counts the clients blocked on the synchronous submit path; when the
	// last one disconnects before the job finishes — and nothing pinned the
	// job (an async submit, a recovery) — abortC closes and the worker's
	// context is canceled, freeing the worker for clients still present.
	watchers int
	pinned   bool
	aborted  bool
	abortC   chan struct{}

	done chan struct{}
}

func newJob(c *compiled, req Request, now time.Time) *Job {
	j := &Job{
		id:        jobID(c.key),
		c:         c,
		req:       req,
		status:    StatusQueued,
		submitted: now,
		abortC:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	j.run = obs.NewRun(j.id)
	return j
}

// ID returns the job's stable identifier.
func (j *Job) ID() string { return j.id }

// Class returns the job's scheduling class.
func (j *Job) Class() Class { return j.c.class }

// Status returns the job's current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Done returns a channel closed when the job reaches a terminal state
// (done, failed, or interrupted by a drain).
func (j *Job) Done() <-chan struct{} { return j.done }

// Run returns the job's live observability run.
func (j *Job) Run() *obs.Run { return j.run }

func (j *Job) markRunning(now time.Time) {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = now
	j.mu.Unlock()
}

// setDegraded marks the job for its one graceful-degradation re-run (the
// worker's realRun swaps in Options.Degraded) and appends the operational
// note explaining why to the job view.
func (j *Job) setDegraded(note string) {
	j.mu.Lock()
	j.degraded = true
	if j.note != "" {
		j.note += "; "
	}
	j.note += note
	j.mu.Unlock()
}

// isDegraded reports whether the job is on its degraded re-run.
func (j *Job) isDegraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// pin exempts the job from client-disconnect cancellation: an async
// submitter will poll for the result, a recovered job has no client at
// all — in both cases the work is wanted regardless of who is connected.
// Pinning is permanent (the conservative direction: never cancel work
// someone may come back for).
func (j *Job) pin() {
	j.mu.Lock()
	j.pinned = true
	j.mu.Unlock()
}

// addWatcher registers one client blocked on the synchronous submit path.
func (j *Job) addWatcher() {
	j.mu.Lock()
	j.watchers++
	j.mu.Unlock()
}

// dropWatcher unregisters one waiting client. When the last watcher of an
// unpinned, unfinished interactive job leaves, the job is aborted: the
// worker context cancels, the engine returns best-so-far, and the worker
// moves on to jobs whose clients are still there.
func (j *Job) dropWatcher() (abortedNow bool) {
	j.mu.Lock()
	j.watchers--
	trigger := j.watchers <= 0 && !j.pinned && !j.aborted &&
		j.c.class == Interactive &&
		(j.status == StatusQueued || j.status == StatusRunning)
	if trigger {
		j.aborted = true
		if j.note != "" {
			j.note += "; "
		}
		j.note += "canceled: client disconnected"
	}
	j.mu.Unlock()
	if trigger {
		close(j.abortC)
	}
	return trigger
}

// abortCh is closed when client-disconnect cancellation fires.
func (j *Job) abortCh() <-chan struct{} { return j.abortC }

// joinable reports whether a new submission of the same request joins j
// instead of running. A failed job is not joinable, and neither is one that
// client-disconnect cancellation ended without a circuit: a returning
// client deserves a fresh run, not a replay of the cancellation.
func (j *Job) joinable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status != StatusFailed && !(j.aborted && j.status == StatusDone && !j.res.Found)
}

// finish records a terminal result and wakes the job's waiters. It and
// interrupt are the only ways out of the queued and running states.
func (j *Job) finish(status JobStatus, res core.Result, errMsg string, now time.Time) {
	j.mu.Lock()
	j.status, j.res, j.errMsg, j.finished = status, res, errMsg, now
	j.mu.Unlock()
	select {
	case <-j.done:
	default:
		close(j.done)
	}
}

// interrupt parks the job for the drain ledger: a drain stopped it before
// it had a result, and the next start resumes it. It has no finish time.
func (j *Job) interrupt() { j.finish(StatusInterrupted, core.Result{}, "", time.Time{}) }

// JobView is the JSON shape of a job returned by the API.
type JobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Class  string `json:"class"`
	// Source says who produced the result: "worker" (a search ran) or
	// "cache" (the canonical-form answer cache derived it at admission).
	Source       string   `json:"source"`
	Deduplicated bool     `json:"deduplicated,omitempty"`
	Clamped      []string `json:"clamped,omitempty"`
	Note         string   `json:"note,omitempty"`
	Resumed      bool     `json:"resumed,omitempty"`
	Degraded     bool     `json:"degraded,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	Result *ResultView `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// ResultView is the JSON shape of a completed search. It deliberately
// contains only deterministic fields — no wall-clock times — so that a
// drained-and-resumed job's result is byte-identical to an uninterrupted
// run's (the property the drain tests pin).
type ResultView struct {
	Found       bool   `json:"found"`
	Stop        string `json:"stop"`
	Circuit     string `json:"circuit,omitempty"`
	Gates       int    `json:"gates,omitempty"`
	QuantumCost int    `json:"quantum_cost,omitempty"`
	Steps       int    `json:"steps"`
	Nodes       int    `json:"nodes"`
	Restarts    int    `json:"restarts"`
	DedupHits   int64  `json:"dedup_hits,omitempty"`
	DedupMisses int64  `json:"dedup_misses,omitempty"`
	Verified    *bool  `json:"verified,omitempty"`
	// CacheHit marks a result answered by the canonical-form cache; the
	// circuit was derived by conjugation and re-verified, not searched.
	CacheHit bool `json:"cache_hit,omitempty"`
	// CanonicalClass is the function's canonical class hash (hex), set
	// whenever the cache classified the request.
	CanonicalClass string `json:"canonical_class,omitempty"`
}

// view snapshots the job for JSON rendering.
func (j *Job) view(deduplicated bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:           j.id,
		Status:       string(j.status),
		Class:        j.c.class.String(),
		Source:       sourceWorker,
		Deduplicated: deduplicated,
		Clamped:      j.c.clamps,
		Note:         j.note,
		Resumed:      j.resumed,
		Degraded:     j.degraded,
		SubmittedAt:  j.submitted,
		Error:        j.errMsg,
	}
	if j.res.CacheHit {
		v.Source = sourceCache
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if j.status == StatusDone || j.status == StatusFailed {
		r := &ResultView{
			Found:       j.res.Found,
			Stop:        j.res.StopReason.String(),
			Steps:       j.res.Steps,
			Nodes:       j.res.Nodes,
			Restarts:    j.res.Restarts,
			DedupHits:   j.res.DedupHits,
			DedupMisses: j.res.DedupMisses,
			CacheHit:    j.res.CacheHit,
		}
		if j.res.CanonicalClass != 0 {
			r.CanonicalClass = fmt.Sprintf("%016x", j.res.CanonicalClass)
		}
		if j.status == StatusDone && j.res.Found && j.res.Circuit != nil && j.res.Verified {
			verified := true
			r.Verified = &verified
		}
		if j.res.Found && j.res.Circuit != nil {
			r.Circuit = j.res.Circuit.String()
			r.Gates = j.res.Circuit.Len()
			r.QuantumCost = j.res.Circuit.QuantumCost()
		}
		v.Result = r
	}
	return v
}
