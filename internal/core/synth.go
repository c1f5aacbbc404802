package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/bits"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/queue"
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
	// was consulted; equal classes mean the specifications are equivalent
	// up to wire relabeling and polarity (exactly so for ≤3 variables,
	// one-sidedly above).
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

// node is one vertex of the search tree. Interior nodes keep only the
// substitution that created them (the paper's memory optimization); the
// PPRM expansion is held only while the node waits in the priority queue
// and is released on expansion.
type node struct {
	parent   *node
	spec     *pprm.Spec
	id       int // 64-bit: long runs create more than 2^31 nodes
	priority float64
	hash     uint64 // transposition hash of the node's PPRM state
	target   int32
	factor   bits.Mask
	depth    int32
	terms    int32
	elim     int32 // per-step: parent.terms − terms
	mem      int32 // approximate bytes charged when queued (see memOf)
}

// nodeBytes approximates the resident size of one node struct plus its
// priority-queue entry. Exactness does not matter — the memory ceiling is
// the paper's coarse 768-MB abort condition, not an allocator. It is the
// accounting estimate, not unsafe.Sizeof(node{}) (64 bytes, pinned by
// TestNodeSize): it stays at the figure charged when the struct was 96
// bytes, so MaxMemory pruning, PeakQueueBytes and the golden trajectories
// do not depend on the struct's layout.
const nodeBytes = 96 + 32

// memOf estimates the bytes a node pins while it waits in the queue: its
// own struct plus its materialized PPRM expansion, if any (most queued
// nodes are lazy and carry none). Ancestor expansions kept alive through
// the parent chain are shared among many queued nodes and are not charged;
// the estimate is deliberately a lower bound, like the node-count stand-in
// it replaces, but it scales with expansion size instead of pretending all
// nodes cost the same. It fits node.mem: the widest expansion (20 outputs of
// 2^20 terms) is about 80 MB.
func memOf(n *node) int32 {
	b := int64(nodeBytes)
	if n.spec != nil {
		b += n.spec.MemBytes()
	}
	return int32(b)
}

type searcher struct {
	opts               Options
	alpha, beta, gamma float64
	n                  int
	initTerms          int
	pq                 queue.Queue[*node]
	root               *node
	bestDepth          int
	bestSol            *node
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
	free               []*node  // recycled node structs (allocation diet)
	factorBuf          []bits.Mask
	deltaBuf           []bits.Mask

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

type scored struct {
	factor   bits.Mask
	terms    int
	elim     int
	priority float64
	hash     uint64 // child state hash (SubstituteProbe)
	admit    bool
}

func newSearcher(spec *pprm.Spec, opts Options) *searcher {
	s := &searcher{opts: opts, n: spec.N, queueCap: maxQueue}
	s.alpha, s.beta, s.gamma = opts.weights()
	s.initTerms = spec.Terms()
	s.maxGates = opts.MaxGates
	if s.maxGates <= 0 {
		// Under AdmitAll the priority's α·depth term favors depth-first
		// descent, so an unbounded search could dive forever down a
		// fruitless path. Cap the depth generously: no function in the
		// paper's entire evaluation needs more than 2^(n+1) gates.
		s.maxGates = 1 << uint(min(spec.N+1, 12))
	}
	s.bestDepth = s.maxGates + 1
	s.root = &node{
		parent:   nil,
		spec:     spec.Clone(),
		id:       0,
		target:   -1,
		depth:    0,
		terms:    int32(s.initTerms),
		priority: math.Inf(1),
	}
	s.nodes = 1
	if opts.Dedup {
		s.tt = newTranspo(dedupMaxEntries)
		s.root.hash = s.root.spec.Hash()
		s.tt.record(s.root.hash, 0)
	}
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
		QueueLen:   int64(s.pq.Len()),
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
func (s *searcher) observeSolution(sol *node) {
	o := s.opts.Observe
	if o == nil {
		return
	}
	o.Solution(int(sol.depth), s.extract(sol).QuantumCost())
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

// newNode hands out a node struct, reusing one from the free list when
// available. The hot path allocates one node per *pushed* child; recycled
// depth-cutoff pops and queue prunes feed the list, so steady-state search
// churn stays off the garbage collector.
func (s *searcher) newNode() *node {
	if k := len(s.free); k > 0 {
		nd := s.free[k-1]
		s.free = s.free[:k-1]
		*nd = node{}
		return nd
	}
	return &node{}
}

// recycle returns a node to the free list. Only nodes that provably have
// no remaining references may be recycled: queued-but-unexpanded nodes
// dropped by a prune or restart, and popped nodes discarded by the
// best-depth cutoff before expansion (they have no children, and solutions
// are never queued, so nothing points at them).
func (s *searcher) recycle(nd *node) {
	nd.parent = nil
	nd.spec = nil
	s.free = append(s.free, nd)
}

// discardQueued releases a queued-but-unexpanded node dropped by a queue
// or memory prune: its transposition entry is removed (it was never
// expanded — leaving it marked as visited could block the only remaining
// path to that state) and its struct is recycled.
func (s *searcher) discardQueued(n *node) {
	if s.tt != nil {
		s.tt.forget(n.hash, int(n.depth))
	}
	s.recycle(n)
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

// push queues a node, charges its approximate memory, and records its
// state in the transposition table so later rediscoveries at the same or
// greater depth are pruned.
func (s *searcher) push(n *node) {
	n.mem = memOf(n)
	s.queueBytes += int64(n.mem)
	if s.tt != nil {
		s.tt.record(n.hash, int(n.depth))
	}
	s.notePeak()
	s.pq.Push(n, n.priority)
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
	s.pq.Each(func(n *node) { s.queueBytes += int64(n.mem) })
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
	keep := s.pq.Len() / 2
	if keep > 0 {
		s.pq.PruneToFunc(keep, s.discardQueued)
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
	s.tt.record(s.root.hash, 0)
	if s.bestSol != nil {
		s.tt.record(s.bestSol.hash, int(s.bestSol.depth))
	}
	s.pq.Each(func(n *node) { s.tt.record(n.hash, int(n.depth)) })
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
		if s.bestSol != nil {
			// A resumed run may already hold a best-so-far circuit; report it
			// so the first snapshot does not pretend the run is solution-less.
			s.observeSolution(s.bestSol)
		}
		return Result{}, false
	}
	if s.root.spec.IsIdentity() {
		if o := s.opts.Observe; o != nil {
			o.Solution(0, 0)
			o.Finish(StopSolved.String())
		}
		return Result{Circuit: circuit.New(s.n), Found: true, Nodes: 1,
			Elapsed: time.Since(s.startTime), StopReason: StopSolved, Workers: s.opts.Workers}, true
	}
	s.emit(EventPush, s.root)
	s.push(s.root)
	return Result{}, false
}

// finish runs the shared run epilogue: the final checkpoint flush on a
// resumable stop, Result assembly from the searcher's counters, and the
// closing Observe update.
func (s *searcher) finish(stop StopReason) Result {
	if resumableStop(stop) {
		// The run can be continued later: flush a final checkpoint so the
		// on-disk state matches the exact round boundary we stopped at.
		// Non-resumable stops (solved, exhausted) leave the previous
		// periodic checkpoint in place; callers delete it on success.
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
	if s.bestSol != nil {
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
	batch := make([]*node, 0, stride)
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
		if s.bestSol != nil {
			if s.opts.FirstSolution {
				stop = StopSolved
				break
			}
			if s.opts.ImproveSteps > 0 && s.steps-s.solSteps >= s.opts.ImproveSteps {
				stop = StopSolved
				break
			}
		}
		if s.opts.MaxSteps > 0 && s.stepsSinceRestart >= s.opts.MaxSteps && s.bestSol == nil {
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
		if s.bestSol == nil && s.opts.MaxSteps > 0 {
			limit = min(limit, s.opts.MaxSteps-s.stepsSinceRestart)
		}
		if s.bestSol != nil && s.opts.ImproveSteps > 0 {
			limit = min(limit, s.opts.ImproveSteps-(s.steps-s.solSteps))
		}

		batch = batch[:0]
		popped := 0
		for popped < limit {
			parent, ok := s.pq.Pop()
			if !ok {
				break
			}
			popped++
			s.queueBytes -= int64(parent.mem)
			s.steps++
			s.stepsSinceRestart++
			s.emit(EventPop, parent)
			// A node this deep cannot lead to a circuit better than the best
			// already found (its children would need depth ≥ bestDepth). It
			// was never expanded, so nothing references it: recycle. Its
			// transposition entry stays — any rediscovery at this depth or
			// deeper would be cut here too (bestDepth only decreases).
			if int(parent.depth) >= s.bestDepth-1 {
				s.recycle(parent)
				continue
			}
			batch = append(batch, parent)
		}
		s.pollIn -= popped
		if popped == 0 {
			// Queue empty at the round boundary.
			if s.bestSol == nil && s.restart() {
				continue
			}
			if s.bestSol != nil {
				stop = StopSolved
			} else {
				stop = s.exhaustionReason()
			}
			break
		}

		generateBatch(clones, batch, gens)
		for i, parent := range batch {
			if int(parent.depth) >= s.bestDepth-1 {
				// A solution committed earlier in this round shrank the
				// bound below this node.
				s.recycle(parent)
				continue
			}
			s.commit(parent, &gens[i])
		}
		if s.pq.Len() > s.queueCap {
			s.pq.PruneToFunc(s.queueCap/2, s.discardQueued)
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
	// Queued nodes are unexpanded leaves — nothing references them once
	// the queue is cleared, so they feed the free list. The transposition
	// table is dropped wholesale: the restart exists to re-explore from a
	// different first move, and "visited" marks inherited from the
	// abandoned frontier would defeat it.
	s.pq.Each(s.recycle)
	s.pq.Clear()
	s.queueBytes = 0
	if s.tt != nil {
		s.tt.reset()
		s.tt.record(s.root.hash, 0)
	}

	cs, delta := s.root.spec.SubstituteCopy(fm.target, fm.factor)
	child := s.newNode()
	*child = node{
		parent: s.root,
		spec:   cs,
		id:     s.nodes,
		target: int32(fm.target),
		factor: fm.factor,
		depth:  1,
		terms:  s.root.terms + int32(delta),
		elim:   int32(-delta),
	}
	if s.tt != nil {
		child.hash = cs.Hash()
	}
	s.nodes++
	child.priority = s.priorityOf(child)
	s.emit(EventRestart, child)
	s.emit(EventPush, child)
	s.push(child)
	return true
}

func (s *searcher) priorityOf(c *node) float64 {
	return s.priority(int(c.depth), int(c.terms), int(c.elim), c.factor)
}

// priority evaluates Eq. (4) (or its linear variant) for a node at the
// given depth with the given expansion size.
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
	return s.alpha*d + s.beta*b - s.gamma*float64(bits.Count(factor))
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
// up front, so the commit half never has to touch spec math.
type pcand struct {
	scored
	sol      *pprm.Spec // materialized expansion when terms == n and not the identity
	identity bool       // terms == n and the expansion is the identity
}

// genTarget collects the sorted candidates for one substitution target.
type genTarget struct {
	target int
	cands  []pcand
}

// genResult is one expansion's generated children, grouped per target in
// target order. The backing arrays (outer and inner) are reused across
// expansions: next re-extends within capacity so the inner cands slices
// keep their storage.
type genResult struct {
	targets []genTarget
}

func (gr *genResult) reset() { gr.targets = gr.targets[:0] }

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

// generate scores every candidate substitution of parent into gr: one
// probe per candidate, priorities, the per-target stable sort, and the
// materialization + identity check for solution-possible candidates.
// It materializes parent's own expansion first if the node was queued
// lazily. It reads only the parent chain (immutable once expanded) and
// the searcher's scoring configuration and scratch buffers — never the
// queue, the transposition table, or any counter — so distinct searchers
// may generate distinct parents concurrently.
func (s *searcher) generate(parent *node, gr *genResult) {
	gr.reset()
	if parent.spec == nil {
		// Lazy materialization (the paper's memory optimization, one
		// step further: queued nodes store only their substitution).
		// The parent chain keeps expansions alive, so one
		// copy-on-write substitution reconstructs this node's.
		parent.spec, _ = parent.parent.spec.SubstituteCopy(int(parent.target), parent.factor)
	}
	spec := parent.spec
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
			tg.cands = append(tg.cands, pcand{scored: scored{
				factor: f,
				terms:  childTerms,
				elim:   -delta,
				hash:   hash,
				admit:  s.admit(f, childTerms, -delta),
			}})
		}
		for i := range tg.cands {
			c := &tg.cands[i]
			c.priority = s.priority(childDepth, c.terms, c.elim, c.factor)
		}
		slices.SortStableFunc(tg.cands, func(a, b pcand) int {
			switch {
			case a.priority > b.priority:
				return -1
			case a.priority < b.priority:
				return 1
			default:
				return 0
			}
		})
		for i := range tg.cands {
			c := &tg.cands[i]
			// A child can only be the identity (a solution) if it has
			// exactly one term per output; the commit half needs the
			// materialized expansion for those, whether to report the
			// solution or to queue the near-miss with its spec attached.
			if c.terms == s.n {
				cs, _ := spec.SubstituteCopy(target, c.factor)
				if cs.IsIdentity() {
					c.identity = true
				} else {
					c.sol = cs
				}
			}
		}
	}
}

// commit admits, deduplicates, and queues the generated children of
// parent, in generated order. It owns every mutation of searcher-global
// state — queue, transposition table, counters, best solution, first
// moves — which is what makes a sequential merge of concurrently
// generated expansions deterministic.
func (s *searcher) commit(parent *node, gr *genResult) {
	isRoot := parent.depth == 0
	childDepth := int(parent.depth) + 1
	for ti := range gr.targets {
		tg := &gr.targets[ti]
		target := tg.target
		pushed := 0
		for i := range tg.cands {
			c := &tg.cands[i]
			solutionPossible := c.terms == s.n
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
					child := s.newChild(parent, target, c, nil)
					s.bestDepth = childDepth
					s.bestSol = child
					s.solSteps = s.steps
					if s.tt != nil {
						s.tt.record(c.hash, childDepth)
					}
					s.emit(EventSolution, child)
					s.observeSolution(child)
				}
				continue
			}
			if !inTopK || childDepth >= s.bestDepth-1 {
				continue
			}
			child := s.newChild(parent, target, c, c.sol)
			pushed++
			if isRoot {
				s.firstMoves = append(s.firstMoves, firstMove{
					target: target, factor: c.factor, priority: c.priority,
				})
			}
			s.emit(EventPush, child)
			s.push(child)
		}
	}
	if isRoot {
		// Restarts try alternative first substitutions in decreasing
		// attractiveness; index 0 is the path the initial search follows.
		sort.SliceStable(s.firstMoves, func(i, j int) bool {
			return s.firstMoves[i].priority > s.firstMoves[j].priority
		})
		s.nextFirstMove = 1
	}
}

// newChild creates the node for parent's generated candidate c, which
// substitutes into target; spec is its materialized expansion, if any.
func (s *searcher) newChild(parent *node, target int, c *pcand, spec *pprm.Spec) *node {
	child := s.newNode()
	*child = node{
		parent:   parent,
		spec:     spec,
		id:       s.nodes,
		priority: c.priority,
		hash:     c.hash,
		target:   int32(target),
		factor:   c.factor,
		depth:    parent.depth + 1,
		terms:    int32(c.terms),
		elim:     int32(c.elim),
	}
	s.nodes++
	return child
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
	tb := bits.Bit(target)
	factors := s.factorBuf[:0]
	bare := out.Has(tb)
	sawConst := false
	if bare || s.opts.Additional {
		// Filter the presentation-order terms in place, so the buffer
		// keeps the capacity of the whole term list.
		factors = out.AppendSorted(factors)
		k := 0
		for _, t := range factors {
			if t&tb != 0 {
				continue
			}
			if s.opts.Library == circuit.NCT && bits.Count(t) > 2 {
				continue
			}
			if t == 0 {
				sawConst = true
			}
			factors[k] = t
			k++
		}
		factors = factors[:k]
	}
	if s.opts.Additional && !sawConst {
		factors = append(factors, 0)
	}
	s.factorBuf = factors[:0]
	return factors
}

// extract rebuilds the Toffoli cascade from the solution node: the path
// from the root to the solution lists the substitutions in circuit order
// (first substitution = gate nearest the inputs).
func (s *searcher) extract(sol *node) *circuit.Circuit {
	gates := make([]circuit.Gate, sol.depth)
	for n := sol; n.parent != nil; n = n.parent {
		gates[n.depth-1] = circuit.Gate{Target: int(n.target), Controls: n.factor}
	}
	c := circuit.New(s.n)
	c.Gates = gates
	return c
}

func (s *searcher) emit(kind EventKind, n *node) {
	if s.opts.Trace == nil {
		return
	}
	parentID := -1
	if n.parent != nil {
		parentID = n.parent.id
	}
	s.emit0(Event{
		Kind:     kind,
		ID:       n.id,
		Parent:   parentID,
		Depth:    int(n.depth),
		Target:   int(n.target),
		Factor:   n.factor,
		Terms:    int(n.terms),
		Elim:     int(n.elim),
		Priority: n.priority,
	})
}

func (s *searcher) emit0(e Event) { s.opts.Trace(e) }
