// Package obs is the run-scoped observability layer for long syntheses:
// live expansion rates, queue pressure, dedup effectiveness, best-so-far
// circuits, and checkpoint freshness for searches that run for millions of
// node expansions (the paper's Tables V–VII workloads).
//
// The design keeps the search hot path untouched. A searcher holds a *Run
// and stores plain integers into its atomic counters — no locks, no
// allocation, no map lookups — and it does so only at the existing
// pollStride boundaries (every 64 expansions), the same cadence it already
// pays for deadline/cancellation polling. A Publisher goroutine samples the
// Run on a wall-clock interval, derives ProgressSnapshots (rates, budget
// remaining, checkpoint age), and fans them out to pluggable sinks: JSON
// lines for machines, expvar for scrapers, a single overwritten TTY line
// for humans. With no Publisher attached a Run costs a handful of atomic
// stores per stride and nothing else.
//
// Runs form a two-level tree: the parallel portfolio gives each variant its
// own child Run (labeled, individually reported) and the parent aggregates
// them; the Table V–VII sweeps give each table row a child Run that
// accumulates over that row's samples. A Run survives multiple searcher
// attachments — Begin folds the previous attempt's counters into a base, so
// sweeps and tightening rounds report cumulative work.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counters is one searcher-side sample: the complete set of counters and
// gauges a search updates at a poll boundary. Passed by value so the hot
// path never allocates.
type Counters struct {
	Steps          int64 // node expansions (priority-queue pops)
	Nodes          int64 // search-tree nodes created
	Restarts       int64 // restart-heuristic firings
	QueueLen       int64 // queued nodes right now
	QueueBytes     int64 // approximate bytes pinned by queued nodes
	TotalBytes     int64 // queue plus transposition table, the MaxMemory estimate
	PeakBytes      int64 // high-water TotalBytes
	DedupHits      int64 // transposition-table prunes
	DedupMisses    int64 // transposition-table probes that found nothing
	DedupEvictions int64 // transposition-table entries dropped
}

// cumulative are the Counters fields that accumulate across attempts (the
// gauges — QueueLen, QueueBytes, TotalBytes — restart from zero with every
// fresh searcher and are not summed).
func (c *Counters) addCumulative(d Counters) {
	c.Steps += d.Steps
	c.Nodes += d.Nodes
	c.Restarts += d.Restarts
	c.DedupHits += d.DedupHits
	c.DedupMisses += d.DedupMisses
	c.DedupEvictions += d.DedupEvictions
	if d.PeakBytes > c.PeakBytes {
		c.PeakBytes = d.PeakBytes
	}
}

// Run is one observed synthesis: a set of atomic counters the searcher
// updates and the Publisher samples. The zero value is not usable; create
// Runs with NewRun and children with Child. All methods are safe for
// concurrent use — updates come from searcher goroutines while snapshots
// come from the publisher's.
type Run struct {
	label string

	// Live counters of the current attempt, stored wholesale by Update.
	cur [countersFields]atomic.Int64
	// Counters folded in from completed attempts (Begin folds cur here, so
	// a Run reused across portfolio tightening rounds or sweep samples
	// reports cumulative totals).
	base Counters

	startNano   atomic.Int64 // first Begin, unix nanoseconds
	budgetSteps atomic.Int64 // TotalSteps across the current attempt; 0 = none
	budgetTime  atomic.Int64 // TimeLimit in ns; 0 = none
	maxMemory   atomic.Int64 // MaxMemory ceiling; 0 = none

	bestGates atomic.Int64 // fewest gates of any solution; -1 = none yet
	bestCost  atomic.Int64 // quantum cost of that solution

	checkpoints   atomic.Int64 // snapshots written successfully
	lastCkptNano  atomic.Int64 // unix ns of the last successful write; 0 = never
	lastCkptBytes atomic.Int64 // size of the last snapshot image

	doneFlag atomic.Bool
	verified atomic.Bool // result passed the independent verification gate

	mu       sync.Mutex // guards children, status, stopReason, base
	children []*Run
	status   string // free-form phase note ("vars=9 sample 37/60")
	stop     string // final stop reason once done
}

// Indices into Run.cur, one per Counters field.
const (
	cSteps = iota
	cNodes
	cRestarts
	cQueueLen
	cQueueBytes
	cTotalBytes
	cPeakBytes
	cDedupHits
	cDedupMisses
	cDedupEvictions
	countersFields
)

// NewRun creates a root Run with the given display label.
func NewRun(label string) *Run {
	r := &Run{label: label}
	r.bestGates.Store(-1)
	return r
}

// Child creates and registers a labeled child Run: a portfolio variant, a
// sweep row. The parent's snapshot aggregates all children.
func (r *Run) Child(label string) *Run {
	c := NewRun(label)
	r.mu.Lock()
	r.children = append(r.children, c)
	r.mu.Unlock()
	return c
}

// Label returns the Run's display label.
func (r *Run) Label() string { return r.label }

// Begin attaches a fresh searcher to the Run: it records the attempt's
// budgets and, when the Run was already used by a previous attempt, folds
// that attempt's counters into the cumulative base so totals keep growing
// monotonically. The start time is set once, by the first Begin.
func (r *Run) Begin(totalSteps int64, timeLimit time.Duration, maxMemory int64) {
	r.startNano.CompareAndSwap(0, time.Now().UnixNano())
	r.mu.Lock()
	r.base.addCumulative(r.load())
	r.mu.Unlock()
	for i := range r.cur {
		r.cur[i].Store(0)
	}
	r.budgetSteps.Store(totalSteps)
	r.budgetTime.Store(int64(timeLimit))
	r.maxMemory.Store(maxMemory)
	r.doneFlag.Store(false)
}

// Update stores a complete counter sample. Called by the searcher at
// pollStride boundaries only — never per node.
func (r *Run) Update(c Counters) {
	r.cur[cSteps].Store(c.Steps)
	r.cur[cNodes].Store(c.Nodes)
	r.cur[cRestarts].Store(c.Restarts)
	r.cur[cQueueLen].Store(c.QueueLen)
	r.cur[cQueueBytes].Store(c.QueueBytes)
	r.cur[cTotalBytes].Store(c.TotalBytes)
	r.cur[cPeakBytes].Store(c.PeakBytes)
	r.cur[cDedupHits].Store(c.DedupHits)
	r.cur[cDedupMisses].Store(c.DedupMisses)
	r.cur[cDedupEvictions].Store(c.DedupEvictions)
}

// load reads the current attempt's counters.
func (r *Run) load() Counters {
	return Counters{
		Steps:          r.cur[cSteps].Load(),
		Nodes:          r.cur[cNodes].Load(),
		Restarts:       r.cur[cRestarts].Load(),
		QueueLen:       r.cur[cQueueLen].Load(),
		QueueBytes:     r.cur[cQueueBytes].Load(),
		TotalBytes:     r.cur[cTotalBytes].Load(),
		PeakBytes:      r.cur[cPeakBytes].Load(),
		DedupHits:      r.cur[cDedupHits].Load(),
		DedupMisses:    r.cur[cDedupMisses].Load(),
		DedupEvictions: r.cur[cDedupEvictions].Load(),
	}
}

// Solution records a found circuit; only improvements (fewer gates) stick,
// so the Run always reports the best-so-far like Result does.
func (r *Run) Solution(gates, quantumCost int) {
	for {
		cur := r.bestGates.Load()
		if cur != -1 && int64(gates) >= cur {
			return
		}
		if r.bestGates.CompareAndSwap(cur, int64(gates)) {
			r.bestCost.Store(int64(quantumCost))
			return
		}
	}
}

// CheckpointWritten records one successful snapshot write of the given
// encoded size.
func (r *Run) CheckpointWritten(bytes int64) {
	r.checkpoints.Add(1)
	r.lastCkptBytes.Store(bytes)
	r.lastCkptNano.Store(time.Now().UnixNano())
}

// SetStatus attaches a free-form phase note shown in snapshots (sweep
// drivers use it for "vars=9 sample 37/60").
func (r *Run) SetStatus(s string) {
	r.mu.Lock()
	r.status = s
	r.mu.Unlock()
}

// SetVerified records whether the run's result passed the independent
// post-synthesis verification gate (internal/verify); surfaced as the
// snapshot's Verified flag. Unlike the counters it is never cleared by
// Begin — it describes the run's final answer, not an attempt.
func (r *Run) SetVerified(v bool) { r.verified.Store(v) }

// Finish marks the Run done with the given stop reason. A later Begin
// (another attempt on the same Run) clears the done mark again.
func (r *Run) Finish(stopReason string) {
	r.mu.Lock()
	r.stop = stopReason
	r.mu.Unlock()
	r.doneFlag.Store(true)
}

// ProgressSnapshot is one derived observation of a Run, the unit every sink
// consumes. Durations are JSON-encoded as nanoseconds (Go's default);
// BestGates is -1 until a solution is found, and LastCheckpointAge is -1
// when no checkpoint has been written.
type ProgressSnapshot struct {
	Label     string    `json:"label"`
	Aggregate bool      `json:"aggregate,omitempty"` // parent roll-up over child runs
	Time      time.Time `json:"time"`
	Status    string    `json:"status,omitempty"`
	Done      bool      `json:"done"`
	Stop      string    `json:"stop,omitempty"` // stop reason once done

	Elapsed     time.Duration `json:"elapsed_ns"`
	Steps       int64         `json:"steps"`
	StepsPerSec float64       `json:"steps_per_sec"` // since the previous snapshot
	Nodes       int64         `json:"nodes"`
	Restarts    int64         `json:"restarts"`

	QueueLen   int64 `json:"queue_len"`
	QueueBytes int64 `json:"queue_bytes"`
	TotalBytes int64 `json:"total_bytes"`
	PeakBytes  int64 `json:"peak_bytes"`
	MaxMemory  int64 `json:"max_memory,omitempty"` // 0 = no ceiling

	DedupHits      int64 `json:"dedup_hits"`
	DedupMisses    int64 `json:"dedup_misses"`
	DedupEvictions int64 `json:"dedup_evictions"`

	BestGates       int `json:"best_gates"` // -1 until a solution exists
	BestQuantumCost int `json:"best_quantum_cost,omitempty"`

	// Verified reports that the run's result passed the independent
	// verification gate; false means unchecked or no result, never "wrong"
	// (a failed check surfaces as a verify-failed stop, not a snapshot).
	Verified bool `json:"verified"`

	Checkpoints         int64         `json:"checkpoints"`
	LastCheckpointAge   time.Duration `json:"last_checkpoint_age_ns"` // -1 = never written
	LastCheckpointBytes int64         `json:"last_checkpoint_bytes,omitempty"`

	StepsBudget    int64         `json:"steps_budget,omitempty"` // TotalSteps; 0 = unbounded
	StepsRemaining int64         `json:"steps_remaining,omitempty"`
	TimeBudget     time.Duration `json:"time_budget_ns,omitempty"` // TimeLimit; 0 = unbounded
	TimeRemaining  time.Duration `json:"time_remaining_ns,omitempty"`
}

// DedupHitRate returns hits/(hits+misses), or 0 before any probe.
func (s *ProgressSnapshot) DedupHitRate() float64 {
	if probes := s.DedupHits + s.DedupMisses; probes > 0 {
		return float64(s.DedupHits) / float64(probes)
	}
	return 0
}

// totals returns the Run's cumulative counters (base + current attempt).
func (r *Run) totals() Counters {
	r.mu.Lock()
	t := r.base
	r.mu.Unlock()
	t.addCumulative(r.load())
	// Gauges reflect the live attempt only.
	t.QueueLen = r.cur[cQueueLen].Load()
	t.QueueBytes = r.cur[cQueueBytes].Load()
	t.TotalBytes = r.cur[cTotalBytes].Load()
	return t
}

// Snapshot derives the Run's ProgressSnapshot at the given instant. When the
// Run has children their counters are aggregated in (sums for counters and
// live gauges, best circuit by fewest gates, freshest checkpoint) and the
// snapshot is marked Aggregate.
func (r *Run) Snapshot(now time.Time) ProgressSnapshot {
	r.mu.Lock()
	children := append([]*Run(nil), r.children...)
	status, stop := r.status, r.stop
	r.mu.Unlock()

	t := r.totals()
	best, bestCost := r.bestGates.Load(), r.bestCost.Load()
	ckpts := r.checkpoints.Load()
	lastCkpt, lastCkptBytes := r.lastCkptNano.Load(), r.lastCkptBytes.Load()
	done := r.doneFlag.Load()
	verified := r.verified.Load()
	start := r.startNano.Load()

	for _, c := range children {
		ct := c.totals()
		t.addCumulative(ct)
		t.QueueLen += ct.QueueLen
		t.QueueBytes += ct.QueueBytes
		t.TotalBytes += ct.TotalBytes
		t.PeakBytes += ct.PeakBytes // children run concurrently: peaks add
		if bg := c.bestGates.Load(); bg != -1 && (best == -1 || bg < best) {
			best, bestCost = bg, c.bestCost.Load()
		}
		ckpts += c.checkpoints.Load()
		if lc := c.lastCkptNano.Load(); lc > lastCkpt {
			lastCkpt, lastCkptBytes = lc, c.lastCkptBytes.Load()
		}
		if cs := c.startNano.Load(); cs != 0 && (start == 0 || cs < start) {
			start = cs
		}
		done = done && c.doneFlag.Load()
		// The portfolio marks the parent for the circuit it returns; a
		// verified child also counts (sweep rows report through children).
		verified = verified || c.verified.Load()
	}

	snap := ProgressSnapshot{
		Label:               r.label,
		Aggregate:           len(children) > 0,
		Time:                now,
		Status:              status,
		Done:                done,
		Steps:               t.Steps,
		Nodes:               t.Nodes,
		Restarts:            t.Restarts,
		QueueLen:            t.QueueLen,
		QueueBytes:          t.QueueBytes,
		TotalBytes:          t.TotalBytes,
		PeakBytes:           t.PeakBytes,
		MaxMemory:           r.maxMemory.Load(),
		DedupHits:           t.DedupHits,
		DedupMisses:         t.DedupMisses,
		DedupEvictions:      t.DedupEvictions,
		BestGates:           int(best),
		BestQuantumCost:     int(bestCost),
		Verified:            verified,
		Checkpoints:         ckpts,
		LastCheckpointAge:   -1,
		LastCheckpointBytes: lastCkptBytes,
	}
	if done {
		snap.Stop = stop
	}
	if start != 0 {
		snap.Elapsed = now.Sub(time.Unix(0, start))
	}
	if lastCkpt != 0 {
		snap.LastCheckpointAge = now.Sub(time.Unix(0, lastCkpt))
	}
	if bs := r.budgetSteps.Load(); bs > 0 {
		snap.StepsBudget = bs
		snap.StepsRemaining = max64(0, bs-r.cur[cSteps].Load())
	}
	if bt := r.budgetTime.Load(); bt > 0 {
		snap.TimeBudget = time.Duration(bt)
		snap.TimeRemaining = maxDur(0, time.Duration(bt)-snap.Elapsed)
	}
	return snap
}

// ChildSnapshots derives one snapshot per registered child, in registration
// order; the portfolio's per-variant telemetry.
func (r *Run) ChildSnapshots(now time.Time) []ProgressSnapshot {
	r.mu.Lock()
	children := append([]*Run(nil), r.children...)
	r.mu.Unlock()
	out := make([]ProgressSnapshot, len(children))
	for i, c := range children {
		out[i] = c.Snapshot(now)
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
