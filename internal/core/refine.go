package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/pprm"
)

// portfolioVariants returns the portfolio's search configurations, derived
// from the caller's options. No single priority shape wins everywhere: the
// default A* charge (α = −0.6) is strongest on random functions and
// arithmetic, a shallower charge (α = −0.3) traverses the elimination
// plateaus of counting functions (rd53, 2of5), and the paper-shaped
// eliminations-per-gate ordering (β·elim/depth) finds the shortest rd53
// realizations. The paper compensated with 60–180 s wall-clock budgets;
// the portfolio is the deterministic equivalent. Each variant gets the
// caller's TotalSteps budget. Variant 0 is always the caller's own
// configuration, so the portfolio can never do worse than a single run.
func portfolioVariants(opts Options) []Options {
	muts := []func(*Options){
		func(o *Options) {},
		func(o *Options) {
			if o.LinearElim && o.Alpha < 0 {
				o.Alpha = -0.3
			}
		},
		func(o *Options) {
			o.LinearElim = false
			o.Alpha, o.Beta, o.Gamma = 0, 0.95, 0.05
		},
	}
	variants := make([]Options, len(muts))
	for i, mut := range muts {
		v := opts
		// A shared Trace callback would be invoked concurrently from every
		// variant's goroutine; tracing is a single-run debugging tool, so
		// the portfolio drops it rather than racing on the caller's sink.
		v.Trace = nil
		// A shared Run would have every variant overwrite the others'
		// gauges; SynthesizePortfolioContext reassigns per-variant child
		// Runs so each goroutine reports individually and the parent
		// aggregates them.
		v.Observe = nil
		mut(&v)
		variants[i] = v
	}
	return variants
}

// SynthesizePortfolio runs the portfolio with context.Background(); see
// SynthesizePortfolioContext.
func SynthesizePortfolio(spec *pprm.Spec, opts Options, rounds int) Result {
	return SynthesizePortfolioContext(context.Background(), spec, opts, rounds)
}

// SynthesizePortfolioContext runs a small portfolio of complementary
// search configurations concurrently — one goroutine per configuration,
// each with its own per-attempt context and budget — and returns the best
// circuit any of them finds, followed by sequential iterative tightening.
//
// The merge is deterministic: the winner is chosen by fewest gates, then
// lowest quantum cost, then lowest configuration index, so the returned
// circuit does not depend on goroutine scheduling. With deterministic
// per-variant budgets (TotalSteps rather than TimeLimit) repeated runs
// return byte-identical circuits. The one documented exception is
// FirstSolution mode, where the first variant to find any solution cancels
// the stragglers — the caller asked for latency, and which variant wins
// that race is inherently timing-dependent.
//
// Canceling ctx cancels every variant and the tightening phase; the Result
// then reports StopReason == StopCanceled with the best circuit found
// before the cancel. A variant that dies on an internal invariant panic
// surrenders only its own slot (its Err is surfaced when no variant
// produced anything).
func SynthesizePortfolioContext(ctx context.Context, spec *pprm.Spec, opts Options, rounds int) Result {
	start := time.Now()
	variants := portfolioVariants(opts)
	if opts.Observe != nil {
		for i := range variants {
			variants[i].Observe = opts.Observe.Child(fmt.Sprintf("variant%d", i))
		}
	}
	results := make([]Result, len(variants))

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := range variants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The input spec is only read: the search derives every
			// expansion through SubstituteCopy and never writes one, so
			// the variants share it without synchronization.
			results[i] = SynthesizeContext(pctx, spec, variants[i])
			if opts.FirstSolution && results[i].Found {
				cancel() // first solution cancels the stragglers
			}
		}(i)
	}
	wg.Wait()

	// The parent Run is a pure aggregate over the variant (and tighten)
	// children; the portfolio finishes it explicitly so the final snapshot
	// reports done with the merged stop reason.
	finishObs := func(r Result) Result {
		if opts.Observe != nil {
			opts.Observe.Finish(r.StopReason.String())
		}
		return r
	}

	best := mergeResults(results, ctx.Err() != nil)
	best.Elapsed = time.Since(start)
	if !best.Found {
		return finishObs(best)
	}
	tight := opts
	if opts.Observe != nil {
		// The tightening rounds get their own child run (Begin folds each
		// round's counters), keeping the parent a pure aggregate.
		tight.Observe = opts.Observe.Child("tighten")
	}
	tighten(ctx, spec, tight, &best, rounds)
	if ctx.Err() != nil {
		best.StopReason = StopCanceled
	}
	if best.Verified && opts.Observe != nil {
		// Each variant verified through its own child Run; mark the parent
		// aggregate for the circuit actually returned.
		opts.Observe.SetVerified(true)
	}
	best.Elapsed = time.Since(start)
	return finishObs(best)
}

// mergeResults folds the variant results into one, independent of the
// order the goroutines finished in. The winning circuit is chosen by the
// fixed tie-break (gates, then quantum cost, then variant index — the
// loop's ascending index with strict improvement provides the last);
// steps, nodes, restarts, and the memory high-water mark aggregate over
// all variants so the portfolio's cost is visible to callers.
func mergeResults(results []Result, canceled bool) Result {
	var merged Result
	var firstErr error
	for i := range results {
		r := &results[i]
		merged.addCounts(r)
		if r.Workers > merged.Workers {
			merged.Workers = r.Workers
		}
		// The variants run concurrently, so their queue watermarks coexist:
		// the portfolio's worst-case footprint is the SUM of the per-variant
		// peaks, not their max. (Summing per-variant peaks still slightly
		// over-approximates — the variants need not peak at the same instant —
		// but a capacity planner wants the upper bound; taking the max here
		// under-reported a 3-variant portfolio by ~3x.)
		merged.PeakQueueBytes += r.PeakQueueBytes
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
		if r.Found && (!merged.Found || betterCircuit(r, &merged)) {
			merged.Found = true
			merged.Circuit = r.Circuit
			merged.Verified = r.Verified
		}
	}
	switch {
	case canceled:
		merged.StopReason = StopCanceled
	case merged.Found:
		merged.StopReason = StopSolved
	default:
		// Variant 0 runs the caller's own configuration; its reason is the
		// one a single Synthesize call would have reported. But if variant 0
		// died on a recovered panic while another variant ran its budget out
		// legitimately, reporting StopInternalError would misdiagnose the
		// whole portfolio as crashed: prefer the first informative
		// non-internal reason (deterministic — ascending variant index) and
		// keep the first error surfaced.
		merged.StopReason = results[0].StopReason
		if merged.StopReason == StopInternalError || merged.StopReason == StopNone {
			for i := range results {
				r := results[i].StopReason
				if r != StopInternalError && r != StopNone {
					merged.StopReason = r
					break
				}
			}
		}
		merged.Err = firstErr
	}
	return merged
}

// betterCircuit reports whether a's circuit strictly beats the incumbent
// b's: fewer gates, then lower quantum cost. Equality keeps the incumbent,
// which realizes the variant-index tie-break.
func betterCircuit(a, b *Result) bool {
	if a.Circuit.Len() != b.Circuit.Len() {
		return a.Circuit.Len() < b.Circuit.Len()
	}
	return a.Circuit.QuantumCost() < b.Circuit.QuantumCost()
}

// addCounts folds r's work counters into res.
func (res *Result) addCounts(r *Result) {
	res.Steps += r.Steps
	res.Nodes += r.Nodes
	res.Restarts += r.Restarts
	res.DedupHits += r.DedupHits
	res.DedupMisses += r.DedupMisses
	res.DedupEvictions += r.DedupEvictions
}

// SynthesizeIterative is SynthesizeIterativeContext with
// context.Background().
func SynthesizeIterative(spec *pprm.Spec, opts Options, rounds int) Result {
	return SynthesizeIterativeContext(context.Background(), spec, opts, rounds)
}

// SynthesizeIterativeContext improves on Synthesize by iterative
// tightening: after a circuit of G gates is found, the search is re-run
// from scratch with MaxGates = G−1, so the whole budget of the next round
// is spent strictly below the best known size (where the priority focuses
// on shorter realizations), instead of on an already-found frontier.
// Rounds stop when a round finds nothing better, `rounds` re-runs have
// been made, or ctx is canceled (the best circuit so far is returned with
// StopReason == StopCanceled).
//
// This plays the role of the paper's long per-function improvement phases
// (it kept searching for up to 60–180 s after the first solution) within
// deterministic step budgets. The first round runs with the caller's
// options verbatim; tightening rounds reuse the caller's TotalSteps budget
// and stop at their first (necessarily better) solution.
func SynthesizeIterativeContext(ctx context.Context, spec *pprm.Spec, opts Options, rounds int) Result {
	best := SynthesizeContext(ctx, spec, opts)
	if best.Found {
		tighten(ctx, spec, opts, &best, rounds)
	}
	return best
}

// tighten runs up to `rounds` searches for a circuit strictly shorter than
// best's, each from scratch with MaxGates one below the best size so far,
// and folds every round into best: its counters and Elapsed add up, and
// its PeakQueueBytes takes the max (the rounds run one after another).
// Rounds stop early when a round finds nothing better or ctx is canceled
// (best then reports StopCanceled).
func tighten(ctx context.Context, spec *pprm.Spec, opts Options, best *Result, rounds int) {
	for round := 0; round < rounds; round++ {
		if ctx.Err() != nil {
			best.StopReason = StopCanceled
			return
		}
		bound := best.Circuit.Len() - 1
		if bound <= 0 {
			return
		}
		tight := opts
		tight.MaxGates = bound
		tight.FirstSolution = true
		if tight.LinearElim && tight.Alpha < 0 {
			// Tightening rounds can afford a steeper per-gate charge: the
			// search is now looking only for strictly shorter circuits, so
			// quality-oriented ordering pays. Empirically (random
			// 5-variable functions, equal budgets) −0.9 recovers the
			// paper's Table III sizes where −0.6 alone lands ~6 gates
			// higher.
			tight.Alpha = 1.5 * tight.Alpha
		}
		r := SynthesizeContext(ctx, spec, tight)
		best.addCounts(&r)
		best.Elapsed += r.Elapsed
		best.PeakQueueBytes = max(best.PeakQueueBytes, r.PeakQueueBytes)
		if !r.Found {
			if r.StopReason == StopCanceled {
				best.StopReason = StopCanceled
			}
			return
		}
		best.Circuit = r.Circuit
		best.Verified = r.Verified
	}
}
