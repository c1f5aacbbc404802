package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bits"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/pprm"
)

// Result reports the outcome of a synthesis run.
type Result struct {
	// Circuit is the best cascade found (nil when Found is false). Gates
	// appear in input→output order; gate k realizes the k-th substitution
	// on the path from the search-tree root to the best solution node.
	Circuit *circuit.Circuit
	// Found reports whether any solution was found within the limits.
	Found bool
	// Steps is the number of node expansions (priority-queue pops).
	Steps int
	// Nodes is the number of search-tree nodes created (enqueued children
	// plus solutions; candidates pruned before allocation are not
	// counted).
	Nodes int
	// Restarts is how many times the restart heuristic fired.
	Restarts int
	// Elapsed is the wall-clock synthesis time.
	Elapsed time.Duration
	// StopReason records why the run returned; Found and StopReason are
	// independent (a run can be canceled after finding its best circuit,
	// in which case Found is true and StopReason is StopCanceled).
	StopReason StopReason
	// PeakQueueBytes is the approximate high-water memory of queued
	// search nodes (node structs plus materialized expansions) plus the
	// transposition table, in bytes. See Options.MaxMemory for what the
	// estimate covers.
	PeakQueueBytes int64
	// DedupHits counts candidate children pruned by the transposition
	// table: their full PPRM state had already been queued or solved at
	// the same or a shallower depth. Zero when Options.Dedup is off.
	DedupHits int64
	// DedupMisses counts transposition-table probes that found no
	// equal-or-shallower entry; DedupHits+DedupMisses is the total number
	// of probed candidates. Zero when Options.Dedup is off.
	DedupMisses int64
	// DedupEvictions counts transposition-table entries dropped by
	// restarts, the table's size cap, or memory-pressure resets. Zero when
	// Options.Dedup is off.
	DedupEvictions int64
	// Resumed reports that this run continued from a checkpoint
	// (ResumeContext) rather than starting fresh. Counters (Steps, Nodes,
	// Restarts, the dedup counters) and Elapsed are cumulative across all
	// segments of the run.
	Resumed bool
	// Checkpoints is how many snapshots this segment wrote successfully,
	// including the final flush on a resumable stop. Zero when
	// Options.Checkpoint is unset.
	Checkpoints int
	// CheckpointErrors is how many snapshot writes failed this segment.
	// Failures never stop the search — resumability degrades, the job
	// does not — so a nonzero count with Found=true means "answer is
	// good, durability was not"; callers deciding whether to trust resume
	// state should look here (and at Checkpoint.OnError for the errors
	// themselves).
	CheckpointErrors int
	// CacheHit reports that the circuit came from the canonical-form
	// answer cache (Options.Cache) — derived by conjugating a stored
	// cascade and re-verified — rather than from a search. Steps, Nodes,
	// and the other search counters are zero on a hit.
	CacheHit bool
	// CanonicalClass is the canonical-form class hash of the input
	// specification (see internal/canon). Nonzero only when Options.Cache
	// was consulted. For ≤5 variables, equal classes mean exactly that the
	// specifications are equivalent up to wire relabeling and polarity;
	// above that, the class names the specification itself.
	CanonicalClass uint64
	// Verified reports that the independent post-synthesis gate
	// (internal/verify) re-simulated Circuit gate by gate and its
	// permutation matches the input specification. False when no circuit
	// was found or when the gate was skipped — Options.SkipVerify set, or
	// the function too wide to tabulate (verify.Feasible). A found circuit
	// with Verified false is unchecked, not wrong; a circuit that fails the
	// gate never reaches the caller (StopVerifyFailed instead).
	Verified bool
	// Workers is Options.Workers as the run used it: 0 for the sequential
	// search, the generation width of the deterministic-merge rounds
	// otherwise. Every other field is identical for all Workers ≥ 1.
	Workers int
	// Err is non-nil only when the run was aborted by a recovered internal
	// invariant panic (StopReason == StopInternalError). The rest of the
	// Result is zero in that case; the process survives.
	Err error
}

// Synthesize runs the RMRLS search on a PPRM expansion and returns the best
// Toffoli cascade found. The input Spec is not modified. It is equivalent
// to SynthesizeContext with context.Background().
func Synthesize(spec *pprm.Spec, opts Options) Result {
	return SynthesizeContext(context.Background(), spec, opts)
}

// SynthesizeContext is Synthesize with cancellation: the search polls
// ctx.Done() alongside its wall-clock deadline every pollStride expansions,
// so a cancel is observed within a bounded (and small) amount of work. On
// cancellation the Result carries StopReason == StopCanceled together with
// the best-so-far circuit and the usual telemetry — a canceled run still
// yields a usable partial answer, matching the paper's best-so-far
// reporting under its wall-clock timer.
//
// Internal invariant panics (pprm, circuit) are recovered and converted
// into a Result with Err set instead of killing the process, so a server
// or portfolio driving many searches survives a single bad attempt.
func SynthesizeContext(ctx context.Context, spec *pprm.Spec, opts Options) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{
				StopReason: StopInternalError,
				Err:        fmt.Errorf("core: synthesis aborted by internal error: %v", r),
			}
			if opts.Observe != nil {
				opts.Observe.Finish(StopInternalError.String())
			}
		}
	}()
	hit, probe, ok := cacheLookup(spec, &opts)
	if ok {
		return hit
	}
	s := newSearcher(spec, opts)
	s.done = ctx.Done()
	return cacheStore(probe, &opts, verifyGate(spec, &opts, s.run()))
}

// SynthesizePerm synthesizes a reversible function given as a permutation:
// it computes the canonical PPRM expansion and searches. The error is
// non-nil only if p is not a valid reversible function.
func SynthesizePerm(p perm.Perm, opts Options) (Result, error) {
	return SynthesizePermContext(context.Background(), p, opts)
}

// SynthesizePermContext is SynthesizePerm with cancellation; see
// SynthesizeContext for the cancellation contract.
func SynthesizePermContext(ctx context.Context, p perm.Perm, opts Options) (Result, error) {
	spec, err := pprm.FromPerm(p)
	if err != nil {
		return Result{}, err
	}
	return SynthesizeContext(ctx, spec, opts), nil
}

// node is one vertex of the search tree, stored in the searcher's arena
// (arena.go). A node records the substitution that created it (the paper's
// memory optimization); most queued nodes are lazy and hold no PPRM
// expansion. A node's expansion is materialized when it is queued as a
// near-miss solution or when it is expanded, and it lives exactly as long
// as the node: an expanded node keeps it while any child is live, since
// the children's lazy materialization starts from it, and release drops
// it with the node.
//
// A node stores nothing it can derive from state that stays live while it
// does: its priority (priorityOf), its per-step elimination (elimOf, from
// the parent, which outlives it) and its queued memory charge (memOf of its
// expansion, which does not change while it waits in the queue).
type node struct {
	id     int    // 64-bit: long runs create more than 2^31 nodes
	hash   uint64 // transposition hash of the node's PPRM state
	parent int32  // arena slot of the parent; −1 for the root
	spec   int32  // arena expansion slot; −1 for a lazy node
	target int32
	factor bits.Mask
	depth  int32
	terms  int32
	kids   int32 // live children; see release
}

// nodeBytes approximates the resident size of one node struct plus its
// priority-queue entry. Exactness does not matter — the memory ceiling is
// the paper's coarse 768-MB abort condition, not an allocator. It is the
// accounting estimate, not unsafe.Sizeof(node{}) (48 bytes, pinned by
// TestNodeSize): it stays at the figure charged when the struct was 96
// bytes, so MaxMemory pruning, PeakQueueBytes and the golden trajectories
// do not depend on the struct's layout.
const nodeBytes = 96 + 32

type searcher struct {
	opts               Options
	alpha, beta, gamma float64
	n                  int
	initTerms          int
	ar                 arena
	fr                 frontier // the queue of unexpanded children
	bestDepth          int
	bestSol            int32 // arena slot; −1 until a solution is found
	steps              int
	stepsSinceRestart  int
	solSteps           int
	nodes              int
	restarts           int
	firstMoves         []firstMove
	nextFirstMove      int
	deadline           time.Time
	hasDeadline        bool
	done               <-chan struct{} // ctx.Done(); nil = not cancellable
	pollIn             int             // pops until the next limit poll; ≤ 0 polls this round
	queueBytes         int64           // approximate bytes of queued nodes
	peakBytes          int64
	maxGates           int
	queueCap           int      // node-count prune threshold: maxQueue, lowered only by tests
	tt                 *transpo // transposition table; nil when Dedup is off
	factorBuf          []bits.Mask
	deltaBuf           []bits.Mask
	fanout             []keyedLeaf // commit's lazy children, before queueLeaves

	// view and scratch are Specs that stored expansions are loaded into
	// and derived in (see expansion and derive); in slice form they alias
	// runs, the store's or runBuf. Each det-merge clone has its own.
	view, scratch pprm.Spec
	runBuf        []uint32

	// stepHook, when non-nil, runs at the top of every search round.
	// Test-only: invariant checks (byte accounting, watermark
	// monotonicity) hook in here without perturbing the search itself.
	stepHook func(*searcher)

	// Checkpoint/resume state (see state.go). startTime is this segment's
	// run() entry; prevElapsed is the wall-clock accumulated by earlier
	// segments, so prevElapsed+time.Since(startTime) is the cumulative
	// elapsed the snapshot format stores and Result reports.
	startTime     time.Time
	prevElapsed   time.Duration
	resumed       bool
	ckptCount     int
	ckptErrs      int
	lastCkptSteps int
	lastCkptTime  time.Time
	ckptTimeIn    int // expansions until the next wall-clock cadence check
}

type firstMove struct {
	target   int
	factor   bits.Mask
	priority float64
}

// scored is one candidate substitution as generate scored it: its Eq. (4)
// priority, the state hash and the term counts of the child it creates,
// and whether the admission rule lets it into the queue. It is 32 bytes.
type scored struct {
	priority float64
	hash     uint64 // child state hash (SubstituteProbe)
	factor   bits.Mask
	terms    int32 // the child's term count
	elim     int32 // terms the substitution removes (negative if it adds)
	admit    bool
}

// newScoring returns a searcher holding only the configuration fixed for
// one spec and one set of options: the options, the priority weights, the
// width, the root's term count, the depth cap, the queue cap and the
// scratch Specs. Its arena, queue, table and counters are empty.
// newSearcher and restoreSearcher build on it, and scoringClone is one.
func newScoring(opts Options, n, initTerms int) *searcher {
	s := &searcher{opts: opts, n: n, initTerms: initTerms, maxGates: opts.MaxGates, queueCap: maxQueue}
	s.ar.init(n)
	s.fr.init()
	s.view, s.scratch = *pprm.NewSpec(n), *pprm.NewSpec(n)
	s.alpha, s.beta, s.gamma = opts.weights()
	if s.maxGates <= 0 {
		// Under AdmitAll the priority's α·depth term favors depth-first
		// descent, so an unbounded search could dive forever down a
		// fruitless path. Cap the depth generously: no function in the
		// paper's entire evaluation needs more than 2^(n+1) gates.
		s.maxGates = 1 << uint(min(n+1, 12))
	}
	return s
}

func newSearcher(spec *pprm.Spec, opts Options) *searcher {
	s := newScoring(opts, spec.N, spec.Terms())
	s.bestDepth = s.maxGates + 1
	s.bestSol = -1
	root := node{
		parent: -1,
		spec:   s.ar.putSpec(spec),
		id:     0,
		target: -1,
		depth:  0,
		terms:  int32(s.initTerms),
	}
	s.nodes = 1
	if opts.Dedup {
		s.tt = newTranspo(dedupMaxEntries)
		root.hash = spec.Hash()
		s.tt.record(root.hash, 0)
	}
	s.ar.alloc(root) // rootSlot
	if opts.TimeLimit > 0 {
		s.deadline = time.Now().Add(opts.TimeLimit)
		s.hasDeadline = true
	}
	return s
}

// pollStride is the number of priority-queue pops between deadline/context
// polls. Each round's pops count the poll countdown down and the poll runs
// at the next round boundary, so cancellation latency is bounded by
// pollStride pops plus one round — microseconds to low milliseconds on
// benchmark-sized specs. The countdown starts expired, so an
// already-expired deadline or pre-canceled context never starts real work.
const pollStride = 64

// interrupted polls the wall-clock deadline and the caller's context once
// every pollStride pops. It is the single place both limits are checked. It
// runs at a round boundary with nothing popped, so a stop it reports needs
// no rollback: the final checkpoint holds exactly the state the resumed run
// continues from.
func (s *searcher) interrupted() (StopReason, bool) {
	if s.pollIn > 0 {
		return StopNone, false
	}
	s.pollIn = pollStride
	s.observe()
	if s.done != nil {
		select {
		case <-s.done:
			return StopCanceled, true
		default:
		}
	}
	if s.hasDeadline && time.Now().After(s.deadline) {
		return StopDeadline, true
	}
	return StopNone, false
}

// observe stores the searcher's counters into the attached obs.Run. It runs
// only at pollStride boundaries (the caller is interrupted) and at run
// start/finish — never per node — so observed and unobserved searches pop,
// expand, and solve identically; the only cost is a dozen atomic stores per
// stride.
func (s *searcher) observe() {
	o := s.opts.Observe
	if o == nil {
		return
	}
	c := obs.Counters{
		Steps:      int64(s.steps),
		Nodes:      int64(s.nodes),
		Restarts:   int64(s.restarts),
		QueueLen:   int64(s.fr.n),
		QueueBytes: s.queueBytes,
		TotalBytes: s.totalBytes(),
		PeakBytes:  s.peakBytes,
	}
	if s.tt != nil {
		c.DedupHits = s.tt.hits
		c.DedupMisses = s.tt.misses
		c.DedupEvictions = s.tt.evictions
	}
	o.Update(c)
}

// observeSolution reports a strictly improved circuit to the attached Run.
// Solutions are rare, so materializing the cascade for its quantum cost is
// off the hot path.
func (s *searcher) observeSolution(sol int32) {
	o := s.opts.Observe
	if o == nil {
		return
	}
	o.Solution(int(s.ar.at(sol).depth), s.extract(sol).QuantumCost())
}

// exhaustionReason classifies a search whose queue drained and whose
// restart heuristic declined to reseed it: if restarts were never
// configured (or never had an alternative first move to try) the searched
// subspace itself is empty; otherwise the first moves ran out.
func (s *searcher) exhaustionReason() StopReason {
	if s.opts.MaxSteps <= 0 {
		return StopQueueExhausted
	}
	if s.restarts > 0 && s.nextFirstMove >= len(s.firstMoves) {
		return StopRestartsExhausted
	}
	return StopQueueExhausted
}

// totalBytes is the MaxMemory estimate: queued nodes plus the
// transposition table.
func (s *searcher) totalBytes() int64 {
	b := s.queueBytes
	if s.tt != nil {
		b += s.tt.bytes()
	}
	return b
}

// push queues a node with the given priority, which is priorityOf(i), as a
// plain entry, after charging it.
func (s *searcher) push(i int32, priority float64) {
	n := s.ar.at(i)
	s.charge(s.ar.memOf(i), n.hash, int(n.depth))
	s.enqueue(i, priority)
}

// charge accounts for a child being queued: its approximate memory (mem,
// see arena.memOf), and its state in the transposition table, so later
// rediscoveries at the same or greater depth are pruned.
func (s *searcher) charge(mem int64, hash uint64, depth int) {
	s.queueBytes += mem
	if s.tt != nil {
		s.tt.record(hash, depth)
	}
	s.notePeak()
}

// notePeak advances the high-water memory mark. The watermark is monotone
// within an attempt by construction: it only ever ratchets upward, and
// every byte source feeding totalBytes charges a node exactly once (a
// popped node's charge is released on pop and never re-charged).
func (s *searcher) notePeak() {
	if t := s.totalBytes(); t > s.peakBytes {
		s.peakBytes = t
	}
}

// recountQueueBytes rebuilds the memory estimate after a prune discarded
// an unknown subset of the queue.
func (s *searcher) recountQueueBytes() {
	s.queueBytes = 0
	s.eachQueued(func(c *queuedChild) { s.queueBytes += s.childMem(c) })
}

// overMemory enforces Options.MaxMemory, the byte-accounted version of the
// paper's 768-MB ceiling: when the estimate (queued nodes plus the
// transposition table) exceeds the limit the lowest-priority half of the
// queue is discarded (graceful degradation, same policy as the maxQueue
// cap); if that is not enough the transposition table is dropped too; if
// even that cannot get back under the ceiling the search must stop, and
// reports StopMemoryLimit.
func (s *searcher) overMemory() bool {
	limit := s.opts.MaxMemory
	if limit <= 0 || s.totalBytes() <= limit {
		return false
	}
	keep := s.fr.n / 2
	if keep > 0 {
		s.pruneQueue(keep, s.discardChild)
		s.recountQueueBytes()
	}
	if s.totalBytes() <= limit {
		return false
	}
	if s.tt != nil && s.tt.bytes() > 0 {
		s.tt.reset()
		s.rerecordQueued()
	}
	return s.totalBytes() > limit
}

// rerecordQueued re-seeds a freshly cleared transposition table with the
// states that are still queued (plus the root and best solution), so the
// invariant "every queued node's state is recorded" survives a reset.
func (s *searcher) rerecordQueued() {
	if s.tt == nil {
		return
	}
	s.tt.record(s.ar.at(rootSlot).hash, 0)
	if s.bestSol >= 0 {
		sol := s.ar.at(s.bestSol)
		s.tt.record(sol.hash, int(sol.depth))
	}
	s.eachQueued(func(c *queuedChild) {
		s.tt.record(s.childHash(c), int(s.childNode(c).depth))
	})
}

// begin runs the shared run prologue: segment timing, the Observe Begin
// event, the trivial-identity early exit, and (on a fresh run) seeding the
// queue with the root. done is true when the search is already over and
// res is the final Result.
func (s *searcher) begin() (res Result, done bool) {
	s.startTime = time.Now()
	s.lastCkptTime = s.startTime
	if o := s.opts.Observe; o != nil {
		o.Begin(int64(s.opts.TotalSteps), s.opts.TimeLimit, s.opts.MaxMemory)
	}
	if s.resumed {
		if s.bestSol >= 0 {
			// A resumed run may already hold a best-so-far circuit; report it
			// so the first snapshot does not pretend the run is solution-less.
			s.observeSolution(s.bestSol)
		}
		return Result{}, false
	}
	if s.expansion(rootSlot).IsIdentity() {
		if o := s.opts.Observe; o != nil {
			o.Solution(0, 0)
			o.Finish(StopSolved.String())
		}
		return Result{Circuit: circuit.New(s.n), Found: true, Nodes: 1,
			Elapsed: time.Since(s.startTime), StopReason: StopSolved, Workers: s.opts.Workers}, true
	}
	s.emit(EventPush, s.ar.at(rootSlot))
	s.push(rootSlot, s.priorityOf(rootSlot))
	return Result{}, false
}

// finish runs the shared run epilogue: the final checkpoint flush on a
// resumable stop, Result assembly from the searcher's counters, and the
// closing Observe update.
func (s *searcher) finish(stop StopReason) Result {
	if stop.Resumable() {
		// The run can be continued later: flush a final checkpoint so the
		// on-disk state matches the exact round boundary we stopped at.
		// Terminal stops leave the previous periodic checkpoint in place;
		// callers delete it (see StopReason.Resumable).
		s.writeCheckpoint()
	}
	res := Result{
		Steps:            s.steps,
		Nodes:            s.nodes,
		Restarts:         s.restarts,
		Elapsed:          s.prevElapsed + time.Since(s.startTime),
		StopReason:       stop,
		PeakQueueBytes:   s.peakBytes,
		Resumed:          s.resumed,
		Checkpoints:      s.ckptCount,
		CheckpointErrors: s.ckptErrs,
		Workers:          s.opts.Workers,
	}
	if s.tt != nil {
		res.DedupHits = s.tt.hits
		res.DedupMisses = s.tt.misses
		res.DedupEvictions = s.tt.evictions
	}
	if s.bestSol >= 0 {
		res.Found = true
		res.Circuit = s.extract(s.bestSol)
	}
	if o := s.opts.Observe; o != nil {
		s.observe() // final counters, so the last snapshot is exact
		o.Finish(stop.String())
	}
	return res
}

// run is the search loop — Fig. 4's pop/expand/push loop, taken in rounds.
// One round: the test hook and the periodic checkpoint at the (clean) round
// boundary, the budget checks, the limit poll (every pollStride pops), a
// sequential pop phase of at most Options.stride nodes, candidate
// generation (fanned out across Workers goroutines when there are
// several), and a sequential commit phase in pop order. Budgets clamp the
// pop phase so a budget never splits a round; every stop therefore lands
// on a round boundary that a resumed run reproduces exactly.
func (s *searcher) run() Result {
	if res, done := s.begin(); done {
		return res
	}
	stride := s.opts.stride()
	clones := make([]*searcher, min(max(s.opts.Workers, 1), stride))
	clones[0] = s // the coordinator generates through its own buffers
	for i := 1; i < len(clones); i++ {
		clones[i] = s.scoringClone()
	}
	batch := make([]popped, 0, stride)
	gens := make([]genResult, stride)

	stop := StopNone
	for {
		if s.stepHook != nil {
			s.stepHook(s)
		}
		s.maybeCheckpoint()
		if s.opts.TotalSteps > 0 && s.steps >= s.opts.TotalSteps {
			stop = StopStepLimit
			break
		}
		if s.bestSol >= 0 {
			if s.opts.FirstSolution {
				stop = StopSolved
				break
			}
			if s.opts.ImproveSteps > 0 && s.steps-s.solSteps >= s.opts.ImproveSteps {
				stop = StopSolved
				break
			}
		}
		if s.opts.MaxSteps > 0 && s.stepsSinceRestart >= s.opts.MaxSteps && s.bestSol < 0 {
			if !s.restart() {
				stop = s.exhaustionReason()
				break
			}
		}
		if r, halt := s.interrupted(); halt {
			stop = r
			break
		}

		// The round budget: never pop past a limit mid-round, so the
		// round-boundary checks above are the only places budgets fire.
		limit := stride
		if s.opts.TotalSteps > 0 {
			limit = min(limit, s.opts.TotalSteps-s.steps)
		}
		if s.bestSol < 0 && s.opts.MaxSteps > 0 {
			limit = min(limit, s.opts.MaxSteps-s.stepsSinceRestart)
		}
		if s.bestSol >= 0 && s.opts.ImproveSteps > 0 {
			limit = min(limit, s.opts.ImproveSteps-(s.steps-s.solSteps))
		}

		batch = batch[:0]
		pops := 0
		for pops < limit {
			pi, ok := s.dequeue()
			if !ok {
				break
			}
			pops++
			parent := s.ar.at(pi)
			s.queueBytes -= s.ar.memOf(pi)
			s.steps++
			s.stepsSinceRestart++
			s.emit(EventPop, parent)
			// A node this deep cannot lead to a circuit better than the best
			// already found (its children would need depth ≥ bestDepth). It
			// was never expanded, so it has no children: release it. Its
			// transposition entry stays — any rediscovery at this depth or
			// deeper would be cut here too (bestDepth only decreases).
			if int(parent.depth) >= s.bestDepth-1 {
				s.release(pi)
				continue
			}
			batch = append(batch, popped{})
			s.pop(pi, &batch[len(batch)-1], &gens[len(batch)-1])
		}
		s.pollIn -= pops
		if pops == 0 {
			// Queue empty at the round boundary.
			if s.bestSol < 0 && s.restart() {
				continue
			}
			if s.bestSol >= 0 {
				stop = StopSolved
			} else {
				stop = s.exhaustionReason()
			}
			break
		}

		generateBatch(clones, batch, gens)
		for i := range batch {
			if int(batch[i].nd.depth) >= s.bestDepth-1 {
				// A solution committed earlier in this round shrank the
				// bound below this node.
				s.release(batch[i].slot)
				continue
			}
			s.commit(batch[i].slot, &gens[i])
		}
		if s.fr.n > s.queueCap {
			s.pruneQueue(s.queueCap/2, s.discardChild)
			s.recountQueueBytes()
		}
		if s.overMemory() {
			stop = StopMemoryLimit
			break
		}
	}
	return s.finish(stop)
}

// restart implements the Section IV-E heuristic: abandon the current
// search frontier and re-enter the tree through the next-best untried
// first-level substitution.
func (s *searcher) restart() bool {
	if s.opts.MaxSteps <= 0 {
		return false
	}
	if s.nextFirstMove >= len(s.firstMoves) {
		return false
	}
	fm := s.firstMoves[s.nextFirstMove]
	s.nextFirstMove++
	s.restarts++
	s.stepsSinceRestart = 0
	// Queued nodes are unexpanded leaves; releasing them frees the whole
	// abandoned frontier down to the root (a restart only fires while no
	// solution is held). The transposition table is dropped wholesale: the
	// restart exists to re-explore from a different first move, and
	// "visited" marks inherited from the abandoned frontier would defeat
	// it.
	s.dropQueue()
	s.resetRuns()
	s.queueBytes = 0
	root := s.ar.at(rootSlot)
	if s.tt != nil {
		s.tt.reset()
		s.tt.record(root.hash, 0)
	}

	cs, delta := s.derive(rootSlot, fm.target, fm.factor)
	child := node{
		parent: rootSlot,
		id:     s.nodes,
		target: int32(fm.target),
		factor: fm.factor,
		depth:  1,
		terms:  root.terms + int32(delta),
	}
	if s.tt != nil {
		child.hash = cs.Hash()
	}
	ci := s.addChild(child, s.putDerived())
	s.emit(EventRestart, s.ar.at(ci))
	s.emit(EventPush, s.ar.at(ci))
	s.push(ci, s.priorityOf(ci))
	return true
}

// elimOf is the per-step elimination of the node in slot i: the terms its
// substitution removed from its parent's expansion (0 for the root). The
// parent is live while the node is.
func (s *searcher) elimOf(i int32) int {
	n := s.ar.at(i)
	if n.parent < 0 {
		return 0
	}
	return int(s.ar.at(n.parent).terms - n.terms)
}

// priorityOf is the queue priority of the node in slot i: +Inf for the
// root, which is expanded first, and Eq. (4) for every other node — the
// value generate computed when it scored the node as a candidate.
func (s *searcher) priorityOf(i int32) float64 {
	n := s.ar.at(i)
	if n.parent < 0 {
		return math.Inf(1)
	}
	return s.priority(int(n.depth), int(n.terms), s.elimOf(i), n.factor)
}

// priority evaluates Eq. (4) (or its linear variant) for a node at the
// given depth with the given expansion size. Each product is rounded on
// its own (the explicit float64 conversions forbid fused multiply-adds), so
// generate and priorityOf get bit-identical values on every platform.
func (s *searcher) priority(depth, terms, elimStep int, factor bits.Mask) float64 {
	elim := s.initTerms - terms
	if s.opts.PerStepElim {
		elim = elimStep
	}
	d := float64(depth)
	b := float64(elim)
	if !s.opts.LinearElim {
		b /= d
	}
	return float64(s.alpha*d) + float64(s.beta*b) - float64(s.gamma*float64(bits.Count(factor)))
}

// Expanding a node — lines 18–33 of Fig. 4 plus the Section IV-D/E
// extensions — is split into a generation half (generate: scoring, sorting,
// and the solution identity checks — pure spec math with no searcher-global
// state) and a commit half (commit: admission, transposition probes, queue
// pushes), so a det-merge round can run many generations concurrently while
// every table and queue mutation stays on one goroutine.

// pcand is one generated candidate child: its score plus the solution
// prework. For candidates that could complete a circuit (terms == n) the
// generation half materializes the expansion and runs the identity check
// up front, so the commit half never has to touch spec math. It is 40
// bytes and holds no pointer (pinned by TestCandidateSize): the
// materialized expansion lives in genResult, so sorting and copying
// candidates moves plain words, with no GC write barrier.
type pcand struct {
	scored
	sol      int32 // index of the materialized expansion in genResult; −1 if none
	identity bool  // terms == n and the expansion is the identity
}

// genTarget collects the candidates for one substitution target, in
// descending priority order, ties in generation order.
type genTarget struct {
	target int
	cands  []pcand
}

// genResult is one expansion's generated children, grouped per target in
// target order, plus the expansions generate materialized: the popped
// node's own, when it was lazy (commit stores it in the arena), and one per
// near-miss candidate (pcand.sol). They are written in the store's form,
// into buffers that belong to the genResult: 2n words each as
// pprm.Spec.AppendWords writes them in word form, a run as
// pprm.AppendSubstituteRun writes it in slice form. So generating one
// allocates nothing once the buffers have grown. The backing arrays (outer
// and inner) are reused across expansions: next re-extends within
// capacity so the inner cands slices keep their storage.
type genResult struct {
	targets []genTarget
	// base is the slice-form expansion generate starts from, the popped
	// node's own or its parent's run in the arena, which the pop phase
	// sets; a word-form one travels in popped.
	base []uint32
	// own reports that generate materialized the popped node's expansion:
	// words in word form, run in slice form. ownHash is its state hash,
	// computed when the node came without one.
	own     bool
	ownHash uint64
	words   []uint64
	run     []uint32
	// The near-miss expansions: 2n words each in solWords in word form;
	// in slice form runs back to back in solRuns, near-miss k starting at
	// solStarts[k].
	solWords  []uint64
	solRuns   []uint32
	solStarts []int32
}

func (gr *genResult) reset() {
	gr.targets = gr.targets[:0]
	gr.own, gr.ownHash = false, 0
	gr.words = gr.words[:0]
	gr.run = gr.run[:0]
	gr.solWords = gr.solWords[:0]
	gr.solRuns = gr.solRuns[:0]
	gr.solStarts = gr.solStarts[:0]
}

func (gr *genResult) next(target int) *genTarget {
	if len(gr.targets) < cap(gr.targets) {
		gr.targets = gr.targets[:len(gr.targets)+1]
	} else {
		gr.targets = append(gr.targets, genTarget{})
	}
	tg := &gr.targets[len(gr.targets)-1]
	tg.target = target
	tg.cands = tg.cands[:0]
	return tg
}

// maxWords is the longest word-form expansion: 2 words per output.
const maxWords = 2 * 6

// popped is a node taken off the queue for expansion, as generate sees it:
// a copy of the node and, in word form, the words of the expansion it
// starts from (a slice-form one is genResult.base). Generation touches
// neither the arena nor its expansions, so the concurrent generations of a
// det-merge round share nothing mutable; commit stores what generate
// materialized. popped holds no pointer (pinned by TestExpansionStoreSize).
type popped struct {
	slot  int32
	nd    node
	words [maxWords]uint64 // nd's own expansion, or its parent's when nd is lazy
}

// pop fills p and gr.base for the expansion of the node in slot pi.
func (s *searcher) pop(pi int32, p *popped, gr *genResult) {
	nd := s.ar.at(pi)
	base := nd.spec
	if base < 0 {
		base = s.ar.at(nd.parent).spec
	}
	p.slot, p.nd = pi, *nd
	if s.ar.wordForm() {
		copy(p.words[:], s.ar.words(base))
		gr.base = nil
	} else {
		gr.base = s.ar.run(base)
	}
}

// generate scores every candidate substitution of p into gr: one probe
// per candidate, its priority, an ordered insert into the target's
// candidate list, and the materialization + identity check for
// solution-possible candidates. It materializes the node's own expansion
// first if the node was queued lazily. It reads only p, gr.base (stored
// expansions are immutable) and the searcher's scoring configuration and
// scratch — never the rest of the arena, the queue, the transposition
// table, or any counter — so distinct searchers may generate distinct
// nodes concurrently.
func (s *searcher) generate(p *popped, gr *genResult) {
	gr.reset()
	parent := &p.nd
	spec, base, word := &s.view, gr.base, s.ar.wordForm()
	if word {
		spec.LoadWords(p.words[:])
	} else {
		spec.LoadRun(base)
	}
	if parent.spec < 0 {
		// Lazy materialization (the paper's memory optimization, one
		// step further: queued nodes store only their substitution).
		// A live node keeps its parent's expansion alive, so one
		// substitution reconstructs this node's: in place in the
		// generator's view in word form, as a new run in slice form.
		gr.own = true
		if word {
			spec.Substitute(int(parent.target), parent.factor)
			gr.words = spec.AppendWords(gr.words)
		} else {
			gr.run, _ = pprm.AppendSubstituteRun(gr.run, base, int(parent.target), parent.factor, &s.deltaBuf)
			base = gr.run
			spec.LoadRun(base)
		}
		if parent.hash == 0 {
			// It surfaced from a list, without its hash (see leaf).
			gr.ownHash = spec.Hash()
		}
	}
	childDepth := int(parent.depth) + 1
	for target := 0; target < s.n; target++ {
		factors := s.factorsFor(spec, target)
		if len(factors) == 0 {
			continue
		}
		tg := gr.next(target)
		for _, f := range factors {
			// Re-applying the parent's own substitution would cancel it:
			// two identical adjacent Toffoli gates are the identity.
			if target == int(parent.target) && f == parent.factor {
				continue
			}
			// One merge-count pass scores the candidate and (for the
			// transposition table) hashes the state it would create,
			// without materializing anything.
			var delta int
			var hash uint64
			delta, hash, s.deltaBuf = spec.SubstituteProbe(target, f, s.deltaBuf)
			childTerms := int(parent.terms) + delta
			c := pcand{scored: scored{
				priority: s.priority(childDepth, childTerms, -delta, f),
				hash:     hash,
				factor:   f,
				terms:    int32(childTerms),
				elim:     int32(-delta),
				admit:    s.admit(f, childTerms, -delta),
			}, sol: -1}
			// Insert after every candidate of equal or higher priority:
			// the list stays in the order a stable sort by descending
			// priority would give, ties in generation order.
			cands := append(tg.cands, c)
			j := len(cands) - 1
			for j > 0 && cands[j-1].priority < c.priority {
				cands[j] = cands[j-1]
				j--
			}
			cands[j] = c
			tg.cands = cands
		}
		for i := range tg.cands {
			c := &tg.cands[i]
			// A child can only be the identity (a solution) if it has
			// exactly one term per output; the commit half needs the
			// materialized expansion for those, whether to report the
			// solution or to queue the near-miss with its spec attached.
			if int(c.terms) != s.n {
				continue
			}
			cs, k := &s.scratch, len(gr.solRuns)
			if word {
				spec.SubstituteTo(cs, target, c.factor)
			} else {
				gr.solRuns, _ = pprm.AppendSubstituteRun(gr.solRuns, base, target, c.factor, &s.deltaBuf)
				cs.LoadRun(gr.solRuns[k:])
			}
			switch {
			case cs.IsIdentity():
				c.identity = true
				gr.solRuns = gr.solRuns[:k]
			case word:
				c.sol = int32(len(gr.solWords) / (2 * s.n))
				gr.solWords = cs.AppendWords(gr.solWords)
			default:
				c.sol = int32(len(gr.solStarts))
				gr.solStarts = append(gr.solStarts, int32(k))
			}
		}
	}
}

// putOwn stores the expansion gr materialized for its popped node.
func (s *searcher) putOwn(gr *genResult) int32 {
	if s.ar.wordForm() {
		return s.ar.putWords(gr.words)
	}
	return s.ar.putRun(gr.run)
}

// putSol stores the expansion gr materialized for candidate c and returns
// its slot, or −1 when there is none.
func (s *searcher) putSol(gr *genResult, c *pcand) int32 {
	switch {
	case c.sol < 0:
		return -1
	case s.ar.wordForm():
		w := s.ar.wordLen
		return s.ar.putWords(gr.solWords[int(c.sol)*w : int(c.sol+1)*w])
	}
	end := len(gr.solRuns)
	if int(c.sol)+1 < len(gr.solStarts) {
		end = int(gr.solStarts[c.sol+1])
	}
	return s.ar.putRun(gr.solRuns[gr.solStarts[c.sol]:end])
}

// commit admits, deduplicates, and queues the generated children of the
// node in slot pi, in generated order, and releases the node if it pushed
// none. It owns every mutation of searcher-global state — arena, queue,
// transposition table, counters, best solution, first moves — which is
// what makes a sequential merge of concurrently generated expansions
// deterministic.
func (s *searcher) commit(pi int32, gr *genResult) {
	parent := s.ar.at(pi)
	if gr.own {
		parent.spec = s.putOwn(gr)
		if parent.hash == 0 {
			parent.hash = gr.ownHash
		}
	}
	isRoot := parent.depth == 0
	childDepth := int(parent.depth) + 1
	ncands := 0
	for ti := range gr.targets {
		ncands += len(gr.targets[ti].cands)
	}
	s.reserveSeqs(ncands)
	// Every node this commit creates is one of its candidates, so their IDs
	// fit a leaf's 16-bit offset from base unless there are more candidates
	// than that; then every child is queued as a plain node.
	base, leaves := s.nodes, ncands <= maxIDSpan
	fanout := s.fanout[:0]
	var lastHash uint64 // state hash of the last lazy child
	for ti := range gr.targets {
		tg := &gr.targets[ti]
		target := tg.target
		pushed := 0
		for i := range tg.cands {
			c := &tg.cands[i]
			solutionPossible := int(c.terms) == s.n
			inTopK := c.admit && (s.opts.GreedyK <= 0 || pushed < s.opts.GreedyK)
			if !inTopK && !solutionPossible {
				continue
			}
			if !solutionPossible && childDepth >= s.bestDepth-1 {
				// Cannot beat the best circuit (paper: "their children
				// are not added to the queue").
				continue
			}
			// Transposition check (deviation 8, see DESIGN.md): a state
			// already queued or solved at this depth or shallower will be
			// (or was) explored through that node; cloning it again here
			// can only repeat work. A strictly shallower rediscovery
			// misses and supersedes the entry when pushed below.
			if s.tt != nil && s.tt.seen(c.hash, childDepth) {
				continue
			}
			if c.identity {
				if childDepth < s.bestDepth {
					child := s.addChild(s.candNode(pi, target, c), -1)
					if s.bestSol >= 0 {
						s.release(s.bestSol)
					}
					s.bestDepth = childDepth
					s.bestSol = child
					s.solSteps = s.steps
					if s.tt != nil {
						s.tt.record(c.hash, childDepth)
					}
					s.emit(EventSolution, s.ar.at(child))
					s.observeSolution(child)
				}
				continue
			}
			if !inTopK || childDepth >= s.bestDepth-1 {
				continue
			}
			pushed++
			if isRoot {
				s.firstMoves = append(s.firstMoves, firstMove{
					target: target, factor: c.factor, priority: c.priority,
				})
			}
			// The child takes its node ID and insertion number now, in
			// the order pushes would have taken them.
			n := s.candNode(pi, target, c)
			s.emit(EventPush, &n)
			if c.sol >= 0 || !leaves {
				ci := s.addChild(n, s.putSol(gr, c))
				s.charge(s.ar.memOf(ci), c.hash, childDepth)
				s.fr.pq.PushSeq(ci, c.priority, s.nextSeq())
				s.fr.n++
				continue
			}
			s.charge(nodeBytes, c.hash, childDepth)
			s.ar.at(pi).kids++
			s.nodes++
			fanout = append(fanout, keyedLeaf{leaf{
				seq: s.nextSeq(), factor: n.factor, terms: n.terms, id: uint16(n.id - base), target: uint8(n.target),
			}, c.priority})
			lastHash = c.hash
		}
	}
	switch len(fanout) {
	case 0:
	case 1: // a lone child gains nothing from a list
		n := s.leafNode(pi, base, &fanout[0].leaf)
		n.hash = lastHash
		s.fr.pq.PushSeq(s.ar.alloc(n), fanout[0].priority, fanout[0].seq)
		s.fr.n++
	default:
		s.queueLeaves(pi, base, fanout)
	}
	s.fanout = fanout[:0]
	if isRoot {
		// Restarts try alternative first substitutions in decreasing
		// attractiveness; index 0 is the path the initial search follows.
		sort.SliceStable(s.firstMoves, func(i, j int) bool {
			return s.firstMoves[i].priority > s.firstMoves[j].priority
		})
		s.nextFirstMove = 1
	}
	if parent.kids == 0 {
		s.release(pi)
	}
}

// candNode is the node for the generated candidate c of the node in slot
// pi, which substitutes into target, numbered as the next node created.
func (s *searcher) candNode(pi int32, target int, c *pcand) node {
	return node{
		parent: pi,
		id:     s.nodes,
		hash:   c.hash,
		spec:   -1,
		target: int32(target),
		factor: c.factor,
		depth:  s.ar.at(pi).depth + 1,
		terms:  c.terms,
	}
}

// addChild stores child, whose expansion is in slot exp (−1 when lazy), in
// the arena under its parent, numbers it, and returns its slot.
func (s *searcher) addChild(child node, exp int32) int32 {
	child.spec = exp
	s.ar.at(child.parent).kids++
	s.nodes++
	return s.ar.alloc(child)
}

// admit implements the queue-admission rule (see the Admission type). The
// strict modes keep the Section IV-D exception for v_i = v_i ⊕ 1, which may
// always increase the term count; AdmitBounded subjects it to the same
// growth bound as every other substitution (documented deviation: an
// unconditioned exception re-opens the blind-descent pathology the bound
// exists to prevent).
func (s *searcher) admit(factor bits.Mask, childTerms, elimStep int) bool {
	switch s.opts.Admission {
	case AdmitAll:
		return true
	case AdmitCumulative:
		return (factor == 0 && s.opts.Additional) || s.initTerms-childTerms > 0
	case AdmitPerStep:
		return (factor == 0 && s.opts.Additional) || elimStep > 0
	default:
		return childTerms <= s.initTerms+growthSlack || elimStep > 0
	}
}

// factorsFor enumerates the candidate factors for substitutions targeting
// the given variable, in a deterministic order. In the basic algorithm
// (Section IV-A) the bare term v_i must be present in the expansion of
// v_out,i; the additional substitutions (Section IV-D) drop that
// requirement and always offer the constant factor 1.
func (s *searcher) factorsFor(spec *pprm.Spec, target int) []bits.Mask {
	out := &spec.Out[target]
	factors := s.factorBuf[:0]
	if out.Has(bits.Bit(target)) || s.opts.Additional {
		factors = out.AppendFactors(factors, target)
		if s.opts.Library == circuit.NCT {
			// Presentation order is by literal count, so the terms with
			// more controls than an NCT gate has form a suffix.
			for k, t := range factors {
				if bits.Count(t) > 2 {
					factors = factors[:k]
					break
				}
			}
		}
	}
	// The constant term, when present, comes first.
	if s.opts.Additional && (len(factors) == 0 || factors[0] != 0) {
		factors = append(factors, 0)
	}
	s.factorBuf = factors[:0]
	return factors
}

// extract rebuilds the Toffoli cascade from the solution node: the path
// from the root to the solution lists the substitutions in circuit order
// (first substitution = gate nearest the inputs).
func (s *searcher) extract(sol int32) *circuit.Circuit {
	gates := make([]circuit.Gate, s.ar.at(sol).depth)
	for i := sol; i != rootSlot; {
		n := s.ar.at(i)
		gates[n.depth-1] = circuit.Gate{Target: int(n.target), Controls: n.factor}
		i = n.parent
	}
	c := circuit.New(s.n)
	c.Gates = gates
	return c
}

// emit reports node n, live or about to be queued, to Options.Trace.
func (s *searcher) emit(kind EventKind, n *node) {
	if s.opts.Trace == nil {
		return
	}
	parentID, elim, priority := -1, 0, math.Inf(1)
	if n.parent >= 0 {
		p := s.ar.at(n.parent)
		parentID, elim = p.id, int(p.terms-n.terms)
		priority = s.priority(int(n.depth), int(n.terms), elim, n.factor)
	}
	s.emit0(Event{
		Kind:     kind,
		ID:       n.id,
		Parent:   parentID,
		Depth:    int(n.depth),
		Target:   int(n.target),
		Factor:   n.factor,
		Terms:    int(n.terms),
		Elim:     elim,
		Priority: priority,
	})
}

func (s *searcher) emit0(e Event) { s.opts.Trace(e) }
