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
	// invariant (dangling parent, invalid substitution, node under a lazy
	// parent, ...).
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

// exportState serializes the searcher into a snapshot.State. It must be
// called at a round boundary, where no node is popped but unexpanded.
//
// The node table holds the root, every queued node, the best solution, and
// all of their ancestors in topological order (parents before children).
// Each node is stored as its substitution alone; only the root's PPRM
// expansion is stored, and restore re-derives everything else (see
// restoreSearcher). A queued leaf is written as the node it stands for, so
// the table does not depend on which children wait in lists.
func (s *searcher) exportState() *snapshot.State {
	index := make(map[int32]int)
	var order []node
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
		order = append(order, *s.ar.at(slot))
		return i
	}
	add(rootSlot)
	queued := make([]int, 0, s.fr.n)
	s.walk(s.fr.cursors(), func(c *queuedChild) {
		if c.slot >= 0 {
			queued = append(queued, add(c.slot))
			return
		}
		n := s.childNode(c)
		add(n.parent)
		queued = append(queued, len(order))
		order = append(order, n)
	})
	bestSol := -1
	if s.bestSol >= 0 {
		bestSol = add(s.bestSol)
	}

	rootSpec := s.expansion(rootSlot)
	st := &snapshot.State{
		SpecHash:          rootSpec.Hash(),
		OptionsFP:         optionsFingerprint(&s.opts),
		Root:              s.exportRoot(rootSpec),
		Nodes:             make([]snapshot.NodeState, len(order)),
		Queued:            queued,
		BestSol:           bestSol,
		Steps:             s.steps,
		StepsSinceRestart: s.stepsSinceRestart,
		SolSteps:          s.solSteps,
		NodesCreated:      s.nodes,
		Restarts:          s.restarts,
		NextFirstMove:     s.nextFirstMove,
		Elapsed:           s.prevElapsed + time.Since(s.startTime),
		PeakBytes:         s.peakBytes,
	}
	for i := range order {
		n := &order[i]
		parent := -1
		if n.parent >= 0 {
			parent = index[n.parent]
		}
		st.Nodes[i] = snapshot.NodeState{
			Parent:       parent,
			ID:           n.id,
			Target:       int(n.target),
			Factor:       uint32(n.factor),
			Materialized: n.spec >= 0,
		}
	}
	for _, fm := range s.firstMoves {
		st.FirstMoves = append(st.FirstMoves, snapshot.FirstMoveState{Target: fm.target, Factor: uint32(fm.factor)})
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

// exportRoot writes the root's expansion sp, loaded from the arena, with
// each output's capacity as the root Spec reported it: a slice-form view's
// own Cap is its length, so the capacity comes from the run.
func (s *searcher) exportRoot(sp *pprm.Spec) snapshot.SpecState {
	run := s.ar.run(s.ar.at(rootSlot).spec)
	out := snapshot.SpecState{N: sp.N, Out: make([]snapshot.TermSetState, len(sp.Out))}
	for i := range sp.Out {
		out.Out[i] = snapshot.TermSetState{
			Terms: append([]bits.Mask(nil), sp.Out[i].Terms()...),
			Cap:   pprm.RunCap(run, s.n, i),
		}
	}
	return out
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

// restoreSearcher rebuilds a live searcher from a snapshot. spec is the
// function the caller wants synthesized — the snapshot must be for the same
// function under fingerprint-identical options, or the typed mismatch
// errors are returned.
//
// The snapshot stores no value the search derives, so restore derives them
// all the way the search does, in topological order: a node's depth is its
// parent's plus one; its term count and state hash come from its
// substitution applied to its parent's expansion — a copy for a
// materialized node, a probe for a lazy one; its elimination and priority
// then follow from those. What is left to check is structure: parent
// links, substitutions, the queue, the leaf shape, the counters and the
// best solution. An unmodified snapshot resumes exactly; a modified one is
// rejected or resumes into a search whose invariants hold (FuzzResume).
//
// Queued lazy children are queued as the search queues them (frontier.go):
// two or more of one parent whose node IDs span at most maxIDSpan become
// leaves in lists, with no arena node; the rest get plain entries.
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
	if r := st.Nodes[0]; r.Parent != -1 || r.Target != -1 || r.Factor != 0 || !r.Materialized {
		return nil, fmt.Errorf("%w: malformed root node", ErrInvalidState)
	}
	for i := range st.Nodes {
		if id := st.Nodes[i].ID; id < 0 || id >= st.NodesCreated {
			return nil, fmt.Errorf("%w: node %d has ID %d, %d created", ErrInvalidState, i, id, st.NodesCreated)
		}
	}
	queued := make([]bool, len(st.Nodes))
	for _, qi := range st.Queued {
		if qi < 0 || qi >= len(queued) || queued[qi] {
			return nil, fmt.Errorf("%w: queued index %d", ErrInvalidState, qi)
		}
		queued[qi] = true
	}
	if st.BestSol >= 0 && st.BestSol < len(queued) && queued[st.BestSol] {
		return nil, fmt.Errorf("%w: solution node queued", ErrInvalidState)
	}
	leafParents := restoredLeafParents(st, queued)

	// nodes maps snapshot node indices to arena slots, −1 for a leaf.
	// Every node in the table is live (the root, queued, the best solution,
	// or an ancestor of one), so each node's kids count is the number of
	// table nodes naming it as parent.
	nodes := make([]int32, len(st.Nodes))
	leaves := make(map[int]leaf) // by node index
	nodes[0] = s.ar.alloc(node{
		parent: -1,
		spec:   s.ar.putRun(rootSpec.AppendRun(nil)),
		id:     st.Nodes[0].ID,
		target: -1,
		terms:  int32(s.initTerms),
		hash:   rootSpec.Hash(),
	})
	for i := 1; i < len(st.Nodes); i++ {
		ns := &st.Nodes[i]
		if ns.Parent < 0 || ns.Parent >= i {
			return nil, fmt.Errorf("%w: node %d parent %d out of order", ErrInvalidState, i, ns.Parent)
		}
		if err := s.checkMove(ns.Target, ns.Factor); err != nil {
			return nil, fmt.Errorf("%w: node %d %v", ErrInvalidState, i, err)
		}
		// Only an expanded node has children, and expansion materializes
		// it; this is also what lets the derivation proceed in index order.
		parent := nodes[ns.Parent]
		if parent < 0 || s.ar.at(parent).spec < 0 {
			return nil, fmt.Errorf("%w: node %d under lazy parent", ErrInvalidState, i)
		}
		pn := s.ar.at(parent)
		n := s.newChild(parent, ns.ID, ns.Target, bits.Mask(ns.Factor), pn.terms)
		if int(n.depth) > s.maxGates {
			return nil, fmt.Errorf("%w: node %d deeper than %d gates", ErrInvalidState, i, s.maxGates)
		}
		var delta int
		if ns.Materialized {
			var cs *pprm.Spec
			cs, delta = s.derive(parent, ns.Target, n.factor)
			n.hash = cs.Hash()
			n.spec = s.putDerived()
		} else {
			delta, n.hash, s.deltaBuf = s.expansion(parent).SubstituteProbe(ns.Target, n.factor, s.deltaBuf)
		}
		n.terms += int32(delta)
		pn.kids++
		if baseID, ok := leafParents[ns.Parent]; ok && queued[i] && !ns.Materialized {
			nodes[i] = -1
			leaves[i] = leaf{factor: n.factor, terms: n.terms, id: uint16(n.id - baseID), target: uint8(n.target)}
			continue
		}
		nodes[i] = s.ar.alloc(n)
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

	s.bestSol, s.bestDepth = -1, s.maxGates+1
	switch {
	case st.BestSol == -1:
	case st.BestSol > 0 && st.BestSol < len(nodes):
		// The search records only identity children as solutions.
		sol := s.ar.at(nodes[st.BestSol])
		if cs, _ := s.derive(sol.parent, int(sol.target), sol.factor); !cs.IsIdentity() {
			return nil, fmt.Errorf("%w: best solution %d is not a circuit", ErrInvalidState, st.BestSol)
		}
		s.bestSol, s.bestDepth = nodes[st.BestSol], int(sol.depth)
	default:
		return nil, fmt.Errorf("%w: best solution index %d", ErrInvalidState, st.BestSol)
	}

	for _, fm := range st.FirstMoves {
		if err := s.checkMove(fm.Target, fm.Factor); err != nil {
			return nil, fmt.Errorf("%w: first move %v", ErrInvalidState, err)
		}
		// The priority only ordered the list, at the root's commit.
		s.firstMoves = append(s.firstMoves, firstMove{target: fm.Target, factor: bits.Mask(fm.Factor)})
	}
	// The root's commit sets NextFirstMove to 1 even when it found no
	// first move.
	if st.NextFirstMove < 0 || st.NextFirstMove > max(1, len(s.firstMoves)) {
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

	// Rebuild the queue under the recorded node IDs. The recorded order
	// must be the queue's strict (priority, node ID) order, so no two
	// children tie; and every ID is below NodesCreated, so among equal
	// priorities the restored children pop before any child created
	// later, as in the original run. A parent's leaves keep that order in
	// their lists, which are then sorted already, and are queued once all
	// of them are collected, in the order of their first child.
	var listParents []int
	lists := make(map[int][]keyedLeaf)
	var lastPriority float64
	var lastID uint64
	for k, qi := range st.Queued {
		slot, id := nodes[qi], uint64(st.Nodes[qi].ID)
		var priority float64
		var l leaf
		if slot >= 0 {
			priority = s.priorityOf(slot)
		} else {
			l = leaves[qi]
			priority = s.leafPriority(nodes[st.Nodes[qi].Parent], &l)
		}
		if k > 0 && compareKeys(lastPriority, lastID, priority, id) >= 0 {
			return nil, fmt.Errorf("%w: queued node %d out of (priority, ID) order", ErrInvalidState, qi)
		}
		lastPriority, lastID = priority, id
		if slot >= 0 {
			s.queueBytes += s.ar.memOf(slot)
			s.enqueue(slot, priority)
			continue
		}
		p := st.Nodes[qi].Parent
		if len(lists[p]) == 0 {
			listParents = append(listParents, p)
		}
		lists[p] = append(lists[p], keyedLeaf{l, priority})
		s.queueBytes += nodeBytes
	}
	for _, p := range listParents {
		s.queueLeaves(nodes[p], leafParents[p], lists[p])
	}
	// The search holds only leaves (queued nodes, the best solution), their
	// ancestors, and the root; release relies on that shape.
	for i, slot := range nodes {
		if slot < 0 {
			continue // a queued leaf
		}
		leaf := queued[i] || i == st.BestSol
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

// restoredLeafParents picks the parents whose queued lazy children restore
// keeps as leaves, by snapshot node index, each with the lowest of those
// children's node IDs, which their leaves count from: the parents with two
// or more such children whose IDs span at most maxIDSpan.
func restoredLeafParents(st *snapshot.State, queued []bool) map[int]int {
	type span struct{ n, lo, hi int }
	spans := make(map[int]span)
	for i := range st.Nodes {
		ns := &st.Nodes[i]
		if !queued[i] || ns.Materialized || ns.Parent < 0 || ns.Parent >= i {
			continue // the node loop rejects a parent out of order
		}
		sp, ok := spans[ns.Parent]
		if !ok {
			sp = span{lo: ns.ID, hi: ns.ID}
		}
		sp.n++
		sp.lo, sp.hi = min(sp.lo, ns.ID), max(sp.hi, ns.ID)
		spans[ns.Parent] = sp
	}
	out := make(map[int]int)
	for p, sp := range spans {
		if d := sp.hi - sp.lo; sp.n >= 2 && d >= 0 && d <= maxIDSpan { // d < 0: tampered IDs overflowed
			out[p] = sp.lo
		}
	}
	return out
}

// checkMove rejects a substitution the search could not make: v_target =
// v_target ⊕ factor over n variables, with a factor that does not contain
// the target (that would not be reversible).
func (s *searcher) checkMove(target int, factor uint32) error {
	if target < 0 || target >= s.n || uint64(factor) >= 1<<uint(s.n) || bits.Has(bits.Mask(factor), target) {
		return fmt.Errorf("substitution (%d, %#x) invalid over %d variables", target, factor, s.n)
	}
	return nil
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
