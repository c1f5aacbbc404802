package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/bits"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/snapshot"
)

// Typed resume errors. All of them mean "this snapshot cannot continue this
// run"; callers are expected to fall back to a fresh synthesis (the CLI
// does exactly that) rather than fail the job.
var (
	// ErrSpecMismatch: the snapshot was taken for a different function.
	ErrSpecMismatch = errors.New("core: snapshot is for a different function")
	// ErrOptionsMismatch: the snapshot was taken under options that shape
	// the search differently (weights, pruning, admission, dedup, ...).
	// Budgets — TimeLimit, TotalSteps, ImproveSteps, FirstSolution — are
	// free to change between segments and are not fingerprinted.
	ErrOptionsMismatch = errors.New("core: snapshot was taken under different search options")
	// ErrInvalidState: the snapshot decoded but violates a search
	// invariant (dangling parent, depth mismatch, replay divergence, ...).
	// Structurally valid files can still earn this after bit rot that
	// happens to keep the CRC intact, or from a buggy/hostile writer.
	ErrInvalidState = errors.New("core: snapshot state fails validation")
)

// optionsFingerprint hashes the decision-shaping options — everything that
// influences which nodes are generated, scored, admitted, pruned, or
// deduplicated, using resolved values so that an explicit setting equal to
// its default fingerprints identically. Budgets are deliberately excluded:
// resuming with a larger step or time budget is the whole point of a
// checkpoint.
func optionsFingerprint(o *Options) uint64 {
	h := uint64(0xcbf29ce484222325) // FNV-1a, word-at-a-time
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
	}
	mixBool := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(0)
		}
	}
	alpha, beta, gamma := o.weights()
	mix(uint64(o.Library))
	mix(uint64(int64(o.MaxGates)))
	mix(uint64(int64(o.MaxSteps)))
	mix(0) // the retired restart cap, kept so fingerprints stay stable
	mix(uint64(int64(o.GreedyK)))
	mixBool(o.Additional)
	mix(math.Float64bits(alpha))
	mix(math.Float64bits(beta))
	mix(math.Float64bits(gamma))
	mix(uint64(o.Admission))
	mix(growthSlack)
	mixBool(o.LinearElim)
	mixBool(o.PerStepElim)
	mix(maxQueue)
	mix(uint64(o.MaxMemory))
	mixBool(o.Dedup)
	mix(dedupMaxEntries)
	// The round stride is fingerprinted because it shapes the trajectory:
	// det-merge rounds (Workers ≥ 1) batch their budget checks, so they are
	// a distinct (internally consistent) family from the one-pop rounds of
	// the sequential search. The worker COUNT is deliberately not mixed —
	// resuming a det-merge checkpoint under a different Workers value is
	// exact. Sequential runs mix nothing, so fingerprints (and checkpoints,
	// and cache keys) from before the parallel search existed remain valid.
	if o.Workers > 0 {
		mix(0x70617261) // "para"
		mix(1)          // the det-merge family tag
	}
	return h
}

// exportState serializes the complete searcher into a snapshot.State. It
// must be called at a round boundary, where no node is popped but
// unexpanded.
//
// The node table holds the root, every queued node, the best solution, and
// all of their ancestors in topological order (parents before children).
// Only the root's PPRM expansion is stored; expanded interior nodes are
// flagged Materialized and re-derived on restore by replaying their
// (target, factor) substitutions, which reproduces the expansions exactly —
// including backing-array capacities, which the memory accounting depends
// on.
func (s *searcher) exportState() *snapshot.State {
	index := make(map[int32]int)
	var order []int32
	var add func(slot int32) int
	add = func(slot int32) int {
		if i, ok := index[slot]; ok {
			return i
		}
		if p := s.ar.at(slot).parent; p >= 0 {
			add(p)
		}
		i := len(order)
		index[slot] = i
		order = append(order, slot)
		return i
	}
	add(rootSlot)
	var queued []int
	s.pq.Ordered(func(slot int32) { queued = append(queued, add(slot)) })
	bestSol := -1
	if s.bestSol >= 0 {
		bestSol = add(s.bestSol)
	}

	rootSpec := s.ar.spec(rootSlot)
	st := &snapshot.State{
		SpecHash:          rootSpec.Hash(),
		OptionsFP:         optionsFingerprint(&s.opts),
		Root:              exportSpec(rootSpec),
		Nodes:             make([]snapshot.NodeState, len(order)),
		Queued:            queued,
		BestSol:           bestSol,
		BestDepth:         s.bestDepth,
		Steps:             s.steps,
		StepsSinceRestart: s.stepsSinceRestart,
		SolSteps:          s.solSteps,
		NodesCreated:      s.nodes,
		Restarts:          s.restarts,
		NextFirstMove:     s.nextFirstMove,
		Elapsed:           s.prevElapsed + time.Since(s.startTime),
		PeakBytes:         s.peakBytes,
	}
	for i, slot := range order {
		n := s.ar.at(slot)
		parent := -1
		if n.parent >= 0 {
			parent = index[n.parent]
		}
		st.Nodes[i] = snapshot.NodeState{
			Parent:       parent,
			ID:           n.id,
			Target:       int(n.target),
			Factor:       uint32(n.factor),
			Depth:        int(n.depth),
			Terms:        int(n.terms),
			Elim:         s.elimOf(slot),
			Priority:     s.priorityOf(slot),
			Hash:         n.hash,
			Materialized: n.spec >= 0,
		}
	}
	for _, fm := range s.firstMoves {
		st.FirstMoves = append(st.FirstMoves, snapshot.FirstMoveState{
			Target: fm.target, Factor: uint32(fm.factor), Priority: fm.priority,
		})
	}
	if s.tt != nil {
		tt := &snapshot.TTState{
			Hits:      s.tt.hits,
			Misses:    s.tt.misses,
			Evictions: s.tt.evictions,
		}
		tt.Keys, tt.Depths = s.tt.export()
		st.TT = tt
	}
	return st
}

func exportSpec(sp *pprm.Spec) snapshot.SpecState {
	out := snapshot.SpecState{N: sp.N, Out: make([]snapshot.TermSetState, len(sp.Out))}
	for i := range sp.Out {
		ts := &sp.Out[i]
		out.Out[i] = snapshot.TermSetState{
			Terms: append([]bits.Mask(nil), ts.Terms()...),
			Cap:   ts.Cap(),
		}
	}
	return out
}

// resumableStop reports whether a run that stopped for this reason can be
// continued from its final checkpoint: the budget-driven stops. Solved and
// exhausted runs are finished — there is nothing left to continue — and an
// internal-error abort has no trustworthy state to save.
func resumableStop(r StopReason) bool {
	switch r {
	case StopCanceled, StopDeadline, StopStepLimit, StopMemoryLimit:
		return true
	}
	return false
}

// ckptTimeStride is how many expansions pass between wall-clock cadence
// checks; time.Since on every pop would dominate small expansions.
const ckptTimeStride = 256

// maybeCheckpoint writes a periodic snapshot when the configured cadence
// (step-count or wall-clock) has elapsed. Called at the top of the search
// loop, where the searcher is at a clean round boundary.
func (s *searcher) maybeCheckpoint() {
	ck := &s.opts.Checkpoint
	if !ck.enabled() {
		return
	}
	if ck.EverySteps > 0 {
		if s.steps-s.lastCkptSteps < ck.EverySteps {
			return
		}
	} else {
		s.ckptTimeIn--
		if s.ckptTimeIn > 0 {
			return
		}
		s.ckptTimeIn = ckptTimeStride
		if time.Since(s.lastCkptTime) < ck.interval() {
			return
		}
	}
	s.writeCheckpoint()
}

// writeCheckpoint snapshots the searcher and writes it atomically. Failures
// never stop the search: they are reported to Checkpoint.OnError and the
// previous on-disk checkpoint survives untouched.
func (s *searcher) writeCheckpoint() {
	ck := &s.opts.Checkpoint
	if !ck.enabled() {
		return
	}
	st := s.exportState()
	n, err := snapshot.WriteFileN(ck.FS, ck.Path, st)
	if err != nil {
		s.ckptErrs++
		if ck.OnError != nil {
			ck.OnError(err)
		}
		return
	}
	s.ckptCount++
	s.lastCkptSteps = s.steps
	s.lastCkptTime = time.Now()
	if o := s.opts.Observe; o != nil {
		o.CheckpointWritten(n)
	}
}

// restoreSearcher rebuilds a live searcher from a snapshot, validating
// every search invariant along the way. spec is the function the caller
// wants synthesized — the snapshot must be for the same function under
// fingerprint-identical options, or the typed mismatch errors are returned.
//
// Restoration is paranoid by design: the snapshot layer only guarantees the
// bytes are intact, so everything semantic is re-derived and cross-checked
// here. Materialized expansions are rebuilt by replaying substitutions from
// the root and compared against the recorded term counts (and state hashes,
// when deduplication is on); a snapshot that passes either resumes exactly
// or is rejected — it cannot put the searcher into a state the normal
// search could not reach.
func restoreSearcher(spec *pprm.Spec, opts Options, st *snapshot.State) (*searcher, error) {
	if spec.Hash() != st.SpecHash {
		return nil, ErrSpecMismatch
	}
	if optionsFingerprint(&opts) != st.OptionsFP {
		return nil, ErrOptionsMismatch
	}
	if st.Root.N != spec.N || len(st.Root.Out) != spec.N {
		return nil, fmt.Errorf("%w: root has %d variables, spec has %d", ErrSpecMismatch, st.Root.N, spec.N)
	}
	rootSpec := pprm.NewSpec(st.Root.N)
	for i := range st.Root.Out {
		if err := rootSpec.RestoreOutput(i, st.Root.Out[i].Terms, st.Root.Out[i].Cap); err != nil {
			return nil, fmt.Errorf("%w: output %d: %v", ErrInvalidState, i, err)
		}
	}
	if !rootSpec.Equal(spec) {
		// Hash matched but the terms differ: a collision or a forgery.
		return nil, ErrSpecMismatch
	}

	s := newScoring(opts, spec.N, rootSpec.Terms())

	if len(st.Nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrInvalidState)
	}
	r := &st.Nodes[0]
	if r.Parent != -1 || r.Target != -1 || r.Depth != 0 || !r.Materialized || r.Terms != s.initTerms || r.Elim != 0 ||
		!math.IsInf(r.Priority, 1) {
		return nil, fmt.Errorf("%w: malformed root node", ErrInvalidState)
	}
	// nodes maps snapshot node indices to arena slots. Every node in the
	// table is live (the root, queued, the best solution, or an ancestor
	// of one), so each node's kids count is the number of table nodes
	// naming it as parent.
	nodes := make([]int32, len(st.Nodes))
	nodes[0] = s.ar.alloc(node{
		parent: -1,
		spec:   s.ar.putSpec(rootSpec),
		id:     r.ID,
		target: -1,
		terms:  int32(r.Terms),
		hash:   r.Hash,
	})
	for i := 1; i < len(st.Nodes); i++ {
		ns := &st.Nodes[i]
		if ns.Parent < 0 || ns.Parent >= i {
			return nil, fmt.Errorf("%w: node %d parent %d out of order", ErrInvalidState, i, ns.Parent)
		}
		parent := nodes[ns.Parent]
		ps := &st.Nodes[ns.Parent]
		if ns.Depth != ps.Depth+1 || ns.Depth > s.maxGates {
			return nil, fmt.Errorf("%w: node %d depth %d under parent depth %d", ErrInvalidState, i, ns.Depth, ps.Depth)
		}
		if ns.Target < 0 || ns.Target >= s.n {
			return nil, fmt.Errorf("%w: node %d target %d", ErrInvalidState, i, ns.Target)
		}
		factor := bits.Mask(ns.Factor)
		if uint64(ns.Factor) >= 1<<uint(s.n) || factor&bits.Bit(ns.Target) != 0 {
			return nil, fmt.Errorf("%w: node %d factor %#x invalid for target %d", ErrInvalidState, i, ns.Factor, ns.Target)
		}
		if ns.Terms < 0 || ns.Terms > math.MaxInt32 || ns.Elim != ps.Terms-ns.Terms {
			return nil, fmt.Errorf("%w: node %d terms/elim inconsistent", ErrInvalidState, i)
		}
		// The node stores no priority: the search derives it, so a
		// recorded value that disagrees would reorder the resumed queue.
		if math.Float64bits(ns.Priority) != math.Float64bits(s.priority(ns.Depth, ns.Terms, ns.Elim, factor)) {
			return nil, fmt.Errorf("%w: node %d priority %v disagrees with its state", ErrInvalidState, i, ns.Priority)
		}
		n := node{
			parent: parent,
			spec:   -1,
			id:     ns.ID,
			target: int32(ns.Target),
			factor: factor,
			depth:  int32(ns.Depth),
			terms:  int32(ns.Terms),
			hash:   ns.Hash,
		}
		if ns.Materialized {
			// Expanded interior nodes keep their expansions alive for
			// their children's lazy materialization; the invariant that a
			// materialized node's parent is materialized is what lets the
			// replay below proceed in index order.
			if !ps.Materialized {
				return nil, fmt.Errorf("%w: node %d materialized under lazy parent", ErrInvalidState, i)
			}
			cs, delta := s.ar.spec(parent).SubstituteCopy(ns.Target, factor)
			if ps.Terms+delta != ns.Terms {
				return nil, fmt.Errorf("%w: node %d replay produced %d terms, snapshot says %d",
					ErrInvalidState, i, ps.Terms+delta, ns.Terms)
			}
			if opts.Dedup && cs.Hash() != n.hash {
				return nil, fmt.Errorf("%w: node %d replay hash mismatch", ErrInvalidState, i)
			}
			n.spec = s.ar.putSpec(cs)
		}
		nodes[i] = s.ar.alloc(n)
		s.ar.at(parent).kids++
	}

	if st.NodesCreated < len(st.Nodes) {
		return nil, fmt.Errorf("%w: node counter %d below table size %d", ErrInvalidState, st.NodesCreated, len(st.Nodes))
	}
	if st.Steps < 0 || st.StepsSinceRestart < 0 || st.StepsSinceRestart > st.Steps ||
		st.SolSteps < 0 || st.SolSteps > st.Steps || st.Restarts < 0 {
		return nil, fmt.Errorf("%w: negative or inconsistent counters", ErrInvalidState)
	}
	s.nodes = st.NodesCreated
	s.steps = st.Steps
	s.stepsSinceRestart = st.StepsSinceRestart
	s.solSteps = st.SolSteps
	s.restarts = st.Restarts

	s.bestSol = -1
	switch {
	case st.BestSol == -1:
		if st.BestDepth != s.maxGates+1 {
			return nil, fmt.Errorf("%w: no solution but best depth %d", ErrInvalidState, st.BestDepth)
		}
	case st.BestSol >= 0 && st.BestSol < len(nodes):
		if st.Nodes[st.BestSol].Depth != st.BestDepth {
			return nil, fmt.Errorf("%w: best solution depth %d != best depth %d",
				ErrInvalidState, st.Nodes[st.BestSol].Depth, st.BestDepth)
		}
		s.bestSol = nodes[st.BestSol]
	default:
		return nil, fmt.Errorf("%w: best solution index %d", ErrInvalidState, st.BestSol)
	}
	s.bestDepth = st.BestDepth

	for _, fm := range st.FirstMoves {
		if fm.Target < 0 || fm.Target >= s.n || uint64(fm.Factor) >= 1<<uint(s.n) {
			return nil, fmt.Errorf("%w: first move (%d, %#x)", ErrInvalidState, fm.Target, fm.Factor)
		}
		s.firstMoves = append(s.firstMoves, firstMove{
			target: fm.Target, factor: bits.Mask(fm.Factor), priority: fm.Priority,
		})
	}
	if st.NextFirstMove < 0 || st.NextFirstMove > len(s.firstMoves) {
		return nil, fmt.Errorf("%w: next first move %d of %d", ErrInvalidState, st.NextFirstMove, len(s.firstMoves))
	}
	s.nextFirstMove = st.NextFirstMove

	if opts.Dedup != (st.TT != nil) {
		return nil, fmt.Errorf("%w: transposition table presence disagrees with options", ErrInvalidState)
	}
	if st.TT != nil {
		tt := st.TT
		if len(tt.Keys) != len(tt.Depths) || len(tt.Keys) > dedupMaxEntries {
			return nil, fmt.Errorf("%w: transposition table shape", ErrInvalidState)
		}
		s.tt = newTranspo(dedupMaxEntries)
		for i, k := range tt.Keys {
			if tt.Depths[i] < 0 {
				return nil, fmt.Errorf("%w: transposition depth %d", ErrInvalidState, tt.Depths[i])
			}
			s.tt.load(k, tt.Depths[i])
		}
		s.tt.hits = tt.Hits
		s.tt.misses = tt.Misses
		s.tt.evictions = tt.Evictions
	}

	// Rebuild the queue in recorded precedence order. Push assigns fresh,
	// increasing sequence numbers, so FIFO tie-breaking among the restored
	// nodes — and between them and any node pushed later — matches the
	// original run exactly.
	seen := make(map[int]bool, len(st.Queued))
	for _, qi := range st.Queued {
		if qi < 0 || qi >= len(nodes) || seen[qi] {
			return nil, fmt.Errorf("%w: queued index %d", ErrInvalidState, qi)
		}
		seen[qi] = true
		if st.BestSol == qi {
			return nil, fmt.Errorf("%w: solution node queued", ErrInvalidState)
		}
		slot := nodes[qi]
		n := s.ar.at(slot)
		sp := s.ar.spec(slot)
		if n.parent >= 0 && sp == nil && s.ar.spec(n.parent) == nil {
			return nil, fmt.Errorf("%w: queued node %d cannot be materialized", ErrInvalidState, qi)
		}
		s.queueBytes += memOf(sp)
		s.pq.Push(slot, s.priorityOf(slot))
	}
	// The search holds only leaves (queued nodes, the best solution), their
	// ancestors, and the root; release relies on that shape.
	for i, slot := range nodes {
		leaf := seen[i] || i == st.BestSol
		kids := s.ar.at(slot).kids
		if leaf && kids != 0 || !leaf && kids == 0 && i != 0 {
			return nil, fmt.Errorf("%w: node %d is not a childless leaf or an ancestor of one", ErrInvalidState, i)
		}
	}

	s.peakBytes = st.PeakBytes
	if t := s.totalBytes(); t > s.peakBytes {
		s.peakBytes = t
	}
	s.prevElapsed = st.Elapsed
	if opts.TimeLimit > 0 {
		s.deadline = time.Now().Add(opts.TimeLimit - st.Elapsed)
		s.hasDeadline = true
	}
	s.resumed = true
	return s, nil
}

// ResumeContext continues a checkpointed synthesis of spec from the
// snapshot at path, exactly where it left off: the resumed search performs
// the same pops, expansions, and solutions the uninterrupted run would
// have, so the final circuit and all step/node counters match it. opts must
// fingerprint-match the original run's decision-shaping options; its
// budgets (TimeLimit, TotalSteps, ImproveSteps, FirstSolution) may differ.
// TimeLimit, when set, covers the cumulative elapsed time across all
// segments, not just this one.
//
// The error is non-nil when the snapshot cannot be used — missing file
// (fs.ErrNotExist), damage (snapshot.ErrCorrupt and friends), or a typed
// mismatch (ErrSpecMismatch, ErrOptionsMismatch, ErrInvalidState). Callers
// should treat every error as "start fresh", never as a fatal condition.
func ResumeContext(ctx context.Context, spec *pprm.Spec, opts Options, path string) (Result, error) {
	st, err := snapshot.ReadFile(path)
	if err != nil {
		return Result{}, err
	}
	return ResumeStateContext(ctx, spec, opts, st)
}

// ResumeStateContext is ResumeContext for an already-decoded snapshot.
func ResumeStateContext(ctx context.Context, spec *pprm.Spec, opts Options, st *snapshot.State) (res Result, err error) {
	// The restore validation is meant to be exhaustive, but a panic from a
	// hostile snapshot must still surface as a typed error, not kill the
	// process.
	defer func() {
		if r := recover(); r != nil {
			res = Result{}
			err = fmt.Errorf("%w: %v", ErrInvalidState, r)
		}
	}()
	s, err := restoreSearcher(spec, opts, st)
	if err != nil {
		return Result{}, err
	}
	s.done = ctx.Done()
	// A resume never short-circuits through the answer cache (the caller
	// asked to continue this checkpoint), but its verified result is
	// still offered back so later equivalent requests hit.
	return cacheStore(cacheProbeFor(spec, &opts), &opts, verifyGate(spec, &opts, s.run())), nil
}

// ResumePermContext is ResumeContext for a function given as a permutation.
func ResumePermContext(ctx context.Context, p perm.Perm, opts Options, path string) (Result, error) {
	spec, err := pprm.FromPerm(p)
	if err != nil {
		return Result{}, err
	}
	return ResumeContext(ctx, spec, opts, path)
}
