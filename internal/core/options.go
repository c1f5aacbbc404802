// Package core implements RMRLS, the paper's Reed–Muller reversible logic
// synthesis algorithm (Section IV): a priority-queue search over PPRM
// substitutions v_i = v_i ⊕ factor, each of which becomes one generalized
// Toffoli gate in the synthesized cascade.
package core

import (
	"time"

	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// Options configures a synthesis run. The zero value requests the basic
// algorithm of Fig. 4 with the paper's priority weights and no resource
// limits; DefaultOptions returns the configuration matching the paper's
// experimental setup (additional substitutions, greedy pruning, restarts).
type Options struct {
	// Library selects the target gate library. GT (the default) allows
	// any generalized Toffoli gate; NCT restricts candidate factors to at
	// most two literals so every gate is a NOT, CNOT, or 3-bit Toffoli.
	Library circuit.Library

	// MaxGates bounds the synthesized circuit size (the paper's
	// "maximum circuit size" option: 40 for 4-variable runs, 60 for
	// 5-variable runs). 0 means unbounded.
	MaxGates int

	// TimeLimit aborts the search after the given wall-clock duration
	// (the paper's per-function synthesis timer). 0 means no limit.
	TimeLimit time.Duration

	// MaxSteps is the restart heuristic of Section IV-E: if no solution
	// has been found after this many node expansions, the search restarts
	// from the first level of the tree with a different first
	// substitution. 0 disables restarts.
	MaxSteps int

	// TotalSteps bounds the total number of node expansions across all
	// restarts, making a run's work deterministic regardless of machine
	// speed. The experiment drivers use it as the reproducible stand-in
	// for the paper's wall-clock limits. 0 means unbounded.
	TotalSteps int

	// GreedyK enables the greedy pruning heuristic of Section IV-E: only
	// the best K substitutions per input variable are queued at each
	// node. 0 keeps every substitution (the basic algorithm). The paper
	// uses K in 3–5.
	GreedyK int

	// Additional enables the additional substitution types of Section
	// IV-D: factors from v_out,i even when the bare term v_i is absent,
	// and the unconditional substitution v_i = v_i ⊕ 1.
	Additional bool

	// Alpha, Beta, Gamma are the priority weights of Eq. (4). All-zero
	// selects the paper's tuned values 0.3, 0.6, 0.1.
	Alpha, Beta, Gamma float64

	// Admission selects the queue-admission rule; see the Admission
	// constants and DESIGN.md.
	Admission Admission

	// LinearElim replaces Eq. (4)'s β·elim/depth term with β·elim,
	// turning the priority into the A*-style objective
	// α·depth + β·elim − γ·literals. With negative α this orders nodes
	// by net progress minus a per-gate charge, which keeps productive
	// deep paths ahead of the exponentially many shallow siblings — the
	// property the published form lacks (its priority declines along
	// every path, collapsing deep searches into breadth-first floods;
	// see DESIGN.md). Required in practice for functions needing more
	// than ~20 gates.
	LinearElim bool

	// PerStepElim selects the literal pseudocode reading of Eq. (4),
	// where elim is parent.terms − child.terms. The default (false) uses
	// the cumulative reading — terms eliminated relative to the original
	// expansion, averaged per stage — which matches the paper's own
	// Fig. 5 walkthrough (see DESIGN.md).
	PerStepElim bool

	// FirstSolution stops the search at the first solution found instead
	// of continuing to improve it. The paper's scalability experiments
	// (Tables V–VII) use exactly this mode: "As soon as a solution was
	// found, we chose to move on to the next example."
	FirstSolution bool

	// ImproveSteps bounds how many further node expansions are spent
	// improving the solution after the first one is found. 0 means
	// unbounded (run until the queue empties or another limit fires).
	ImproveSteps int

	// MaxMemory bounds the approximate bytes pinned by queued search
	// nodes (node structs plus materialized PPRM expansions) — the
	// byte-accounted version of the paper's 768-MB memory ceiling, which
	// the fixed node-count cap maxQueue can only fake. When the estimate
	// exceeds the limit the lowest-priority half of the queue is
	// discarded; if even that cannot get back under the ceiling the run
	// stops with StopMemoryLimit and reports its best-so-far circuit. 0
	// disables the ceiling. Result.PeakQueueBytes reports the high-water
	// mark.
	MaxMemory int64

	// Dedup enables the transposition table: child states whose full PPRM
	// expansion hash-matches a state already queued or solved at the same
	// or a shallower depth are pruned instead of cloned and enqueued. The
	// search tree re-derives identical states along different substitution
	// orders, so deduplication typically removes a large fraction of the
	// queue traffic at the cost of one map probe per candidate; measured
	// numbers are tracked in BENCH_search.json (see docs/PERFORMANCE.md).
	//
	// This is a documented deviation from the paper, whose Fig. 4
	// pseudocode has no visited check (DESIGN.md, deviation 8). The table
	// is cleared on every restart and un-learns nodes evicted by the
	// queue/memory caps, so it never permanently blocks a path to an
	// unexplored state, and its depth-aware replacement never blocks a
	// strictly shorter path to any state. Off in the zero value (the
	// literal Fig. 4 algorithm); on in DefaultOptions.
	Dedup bool

	// Trace, when non-nil, receives an event for every node push, pop,
	// and solution. Used to reproduce the Fig. 5 search walkthrough.
	Trace func(Event)

	// Observe, when non-nil, receives live run telemetry: the searcher
	// stores its counters into the Run's atomics at the existing pollStride
	// boundaries (never per node — the hot path stays allocation-free and
	// the expansion trajectory is bit-identical to an unobserved run) and
	// records solution and checkpoint events as they happen. Attach an
	// obs.Publisher with sinks to turn the counters into periodic
	// ProgressSnapshots; see internal/obs and docs/OBSERVABILITY.md.
	// Unlike Trace, Observe is cheap enough for production runs and is
	// honored by the parallel portfolio (each variant reports through its
	// own child Run).
	Observe *obs.Run

	// Checkpoint configures periodic crash-safe snapshots of the complete
	// searcher state; the zero value disables them. See the Checkpoint type
	// and ResumeContext.
	Checkpoint Checkpoint

	// Cache, when non-nil, consults the canonical-form answer cache
	// (internal/cache) before searching: a request equivalent to a
	// previously synthesized one — up to wire relabeling and polarity —
	// is answered by conjugating the stored cascade, re-verified through
	// the independent oracle, in place of a search. Verified results of
	// cache-eligible width are stored back after synthesis. Like
	// SkipVerify, the cache never changes what a search would compute, so
	// it is excluded from OptionsFingerprint: toggling it neither
	// invalidates checkpoints nor changes a job's identity. Resumed runs
	// (ResumeContext) bypass the lookup — a resume must continue its
	// checkpoint, not short-circuit it — but do store their verified
	// result. SkipVerify results are never cached.
	Cache *cache.Cache

	// Workers selects how many nodes one search round pops and how many
	// goroutines expand them. 0 (the default) pops one node per round on
	// one goroutine: the paper's Fig. 4 loop. Any value ≥ 1 selects
	// deterministic-merge rounds of a fixed 64 pops: candidate generation
	// (the PPRM probe/score/sort math, the bulk of an expansion's cost)
	// fans out across min(Workers, 64) goroutines while every queue,
	// transposition-table, and counter mutation is merged sequentially in
	// pop order — so the search trajectory, the Result counters, and every
	// checkpoint are byte-identical across Workers=1, 4, 8, ... and across
	// runs. That invariance is what lets checkpoints resume under a
	// different worker count and lets the answer cache treat
	// differently-parallel runs as the same job.
	Workers int

	// SkipVerify disables the always-on post-synthesis verification gate.
	// By default every found circuit is re-simulated gate by gate by the
	// independent internal/verify oracle against the input specification
	// before the Result is returned (when the function is narrow enough to
	// tabulate; see verify.MaxVars), and a mismatch turns the Result into a
	// typed StopVerifyFailed failure instead of a wrong answer. The gate is
	// post-hoc — it never changes the search trajectory — and is excluded
	// from OptionsFingerprint, so toggling it neither invalidates
	// checkpoints nor changes a job's identity. Set it only to benchmark
	// the bare search loop.
	SkipVerify bool
}

// Degraded returns a copy of o for the graceful-degradation re-run after a
// verification failure: the optimizer layers able to corrupt a search-wide
// result — currently the transposition table, which prunes paths based on
// derived state — are disabled, while the verification gate itself stays
// on. The point of the re-run is less machinery, not less checking.
func (o Options) Degraded() Options {
	o.Dedup = false
	o.SkipVerify = false
	o.Cache = nil
	return o
}

// Checkpoint configures durable snapshots of a running search. When Path is
// non-empty the search periodically serializes its complete state (queue,
// expansions, transposition table, counters, best-so-far solution) to Path
// via an atomic temp-file + fsync + rename protocol, and flushes one final
// snapshot when it stops for a resumable reason (cancellation, deadline,
// step or memory limit). ResumeContext continues such a run exactly: the
// resumed search pops, expands, and solves in the same order as the
// uninterrupted one would have.
//
// Checkpointing never fails the search: a write error is reported to
// OnError (if set) and the run continues; the previous checkpoint, if any,
// remains intact on disk thanks to the atomic replace.
type Checkpoint struct {
	// Path is the checkpoint file; empty disables checkpointing.
	Path string

	// Interval is the minimum wall-clock time between periodic
	// checkpoints. 0 selects 30 s. Ignored when EverySteps > 0.
	Interval time.Duration

	// EverySteps, when > 0, checkpoints every N node expansions instead of
	// on a wall-clock cadence — the deterministic mode the resume tests
	// use.
	EverySteps int

	// FS overrides the filesystem the checkpoint is written through; nil
	// selects the real disk. The fault-injection harness substitutes a
	// crashing implementation here.
	FS snapshot.FS

	// OnError, when non-nil, receives checkpoint write failures. The
	// search continues either way.
	OnError func(error)
}

// enabled reports whether checkpointing is configured.
func (c *Checkpoint) enabled() bool { return c.Path != "" }

// interval resolves the wall-clock cadence.
func (c *Checkpoint) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return 30 * time.Second
}

// Admission is the rule deciding which child nodes enter the priority
// queue. The paper is internally inconsistent here: Fig. 4 line 31 demands a
// strictly decreasing term count ("childNode.elim > 0"), but the Fig. 5
// walkthrough queues a node whose substitution *increases* the count, the
// convergence proof states that all candidates are queued, and Table I
// reports success on functions (wire swaps among them) for which every
// synthesis path must pass through states with more terms than both the
// initial and final expansions.
//
// AdmitBounded, the default, reconciles all three: a child is queued when
// its expansion has grown by at most growthSlack terms over the original
// one, or when it strictly shrinks its parent (recovery moves are always
// worth keeping). It admits every node the Fig. 5 walkthrough queues,
// synthesizes the swap-like functions the strict rules provably cannot,
// and still prunes the unproductive branches that make an admit-everything
// search degenerate into blind depth-first descent. The remaining modes
// implement the stricter textual readings and the proof's admit-everything
// reading for ablation.
type Admission int

const (
	// AdmitBounded queues a child iff
	// terms ≤ initTerms + growthSlack or terms < parent.terms.
	AdmitBounded Admission = iota
	// AdmitAll queues every legal candidate; Eq. (4) alone ranks them
	// (the convergence proof's reading).
	AdmitAll
	// AdmitCumulative queues a child only when its expansion is smaller
	// than the original one (matches the Fig. 5 numbers exactly).
	AdmitCumulative
	// AdmitPerStep is the literal Fig. 4 line 31: a child must have
	// strictly fewer terms than its parent. The v_i = v_i ⊕ 1
	// substitution is exempt (Section IV-D) in the strict modes.
	AdmitPerStep
)

func (a Admission) String() string {
	switch a {
	case AdmitAll:
		return "all"
	case AdmitCumulative:
		return "cumulative"
	case AdmitPerStep:
		return "per-step"
	default:
		return "bounded"
	}
}

// DefaultOptions returns the configuration matching the paper's
// experimental setup — additional substitutions on, greedy pruning with
// k = 4, restarts after 10 000 fruitless expansions — with one empirically
// forced change: the priority is the A*-style linear objective
// 0.6·elim − 0.6·depth − 0.1·literals instead of Eq. (4)'s published
// 0.3·depth + 0.6·elim/depth − 0.1·literals. With the published form every
// path's priority decays toward α·depth, deep garbage outranks shallow
// promise, and the search reproduces almost none of the paper's reported
// capability (see DESIGN.md, deviation 3, and the BenchmarkAblationWeights
// benches). BasicOptions keeps the published form.
// It also bounds the post-solution improvement phase (the paper bounds it
// with its wall-clock timer; draining the whole queue below the best depth
// can take orders of magnitude longer than finding the solution). Set
// ImproveSteps to 0 explicitly for an exhaustive improvement phase.
func DefaultOptions() Options {
	return Options{
		Additional:   true,
		GreedyK:      4,
		MaxSteps:     10000,
		ImproveSteps: 20000,
		Alpha:        -0.6,
		Beta:         0.6,
		Gamma:        0.1,
		LinearElim:   true,
		MaxMemory:    768 << 20, // the paper's memory ceiling
		Dedup:        true,
	}
}

// BasicOptions returns the basic algorithm of Fig. 4 without the Section
// IV-E heuristics and without the transposition table (complete given
// enough time and memory, practical only up to about five variables).
func BasicOptions() Options {
	return Options{}
}

func (o *Options) weights() (a, b, g float64) {
	if o.Alpha == 0 && o.Beta == 0 && o.Gamma == 0 {
		return 0.3, 0.6, 0.1
	}
	return o.Alpha, o.Beta, o.Gamma
}

// Fixed search limits. The paper's heuristics (Section IV-E) have no knob
// for any of them, and restarts are bounded only by the first-level
// substitutions left to try.
const (
	// growthSlack is the term-count headroom of AdmitBounded: children
	// whose expansion exceeds the original size by more than this are
	// pruned (wire swaps need ≥ 1).
	growthSlack = 2
	// maxQueue bounds the number of queued nodes; when exceeded, the
	// lowest-priority half is discarded. A coarse node-count companion to
	// MaxMemory.
	maxQueue = 1 << 18
	// dedupMaxEntries caps the transposition table; when the cap is
	// reached the table is cleared wholesale and counts the dropped
	// entries in Result.DedupEvictions. 2^20 entries is ≈ 32 MB under the
	// MaxMemory accounting, which counts the table's bytes regardless.
	dedupMaxEntries = 1 << 20
)

// EventKind distinguishes search-trace events.
type EventKind int

const (
	// EventPush fires when a node is inserted into the priority queue.
	EventPush EventKind = iota
	// EventPop fires when a node is removed for expansion.
	EventPop
	// EventSolution fires when a node completes a circuit better than
	// the best known one.
	EventSolution
	// EventRestart fires when the restart heuristic reseeds the queue.
	EventRestart
)

// Event is one step of the search trace.
type Event struct {
	Kind     EventKind
	ID       int     // node id (0 = root, then creation order)
	Parent   int     // parent node id (-1 for root)
	Depth    int     // gates on the path from the root
	Target   int     // substitution target variable (-1 for root)
	Factor   uint32  // substitution factor mask
	Terms    int     // terms in the node's PPRM expansion
	Elim     int     // terms eliminated by the node's substitution
	Priority float64 // queue priority
}
