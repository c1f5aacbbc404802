package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
)

// generateFull is the reference for generate: it scores every candidate
// with SubstituteProbe — term change, hash, priority, ordered insert — and
// materializes every solution-possible one, whatever the bound. generate
// must give its lists filtered by the tier-2 rule (see keptByGenerate).
func (s *searcher) generateFull(p *popped, gr *genResult) {
	gr.reset()
	parent := &p.nd
	spec, base := &s.view, gr.base
	if parent.spec < 0 {
		gr.own = true
		gr.run, _ = pprm.AppendSubstituteRun(gr.run, base, s.n, int(parent.target), parent.factor, &s.deltaBuf)
		base = gr.run
	}
	spec.LoadRun(base)
	if gr.own && parent.hash == 0 {
		gr.ownHash = spec.Hash()
	}
	childDepth := int(parent.depth) + 1
	for target := 0; target < s.n; target++ {
		factors := s.factorsFor(spec, target)
		if len(factors) == 0 {
			continue
		}
		tg := gr.next(target)
		for _, f := range factors {
			if target == int(parent.target) && f == parent.factor {
				continue
			}
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
			if int(c.terms) != s.n {
				continue
			}
			cs, k := &s.scratch, len(gr.solRuns)
			gr.solRuns, _ = pprm.AppendSubstituteRun(gr.solRuns, base, s.n, target, c.factor, &s.deltaBuf)
			cs.LoadRun(gr.solRuns[k:])
			if cs.IsIdentity() {
				c.identity = true
				gr.solRuns = gr.solRuns[:k]
			} else {
				c.sol = int32(len(gr.solStarts))
				gr.solStarts = append(gr.solStarts, int32(k))
			}
		}
	}
}

// keptByGenerate is the tier-2 rule: a candidate of a child at childDepth
// keeps its score if it could be a solution, or if it is admitted and the
// child is above the last level.
func keptByGenerate(c *pcand, n, childDepth, bound int) bool {
	return int(c.terms) == n || (c.admit && childDepth < bound-1)
}

// solRun is the expansion gr materialized for candidate c.
func solRun(gr *genResult, c *pcand) []uint32 {
	end := len(gr.solRuns)
	if int(c.sol)+1 < len(gr.solStarts) {
		end = int(gr.solStarts[c.sol+1])
	}
	return gr.solRuns[gr.solStarts[c.sol]:end]
}

// genCoverage counts the cases of the tier-2 rule a run of
// TestGenerateMatchesFullScoring met.
type genCoverage struct {
	belowLast int // kept admitted candidates one level above the last
	lastSol   int // kept identities at the last level: better solutions
	lastNear  int // kept near-misses (one term per output) at the last level
	wideTgt   int // targets with more than GreedyK admitted candidates kept
}

// TestGenerateMatchesFullScoring: for every pop of real searches — 3, 4
// and 5 variables in word form, a 7-wire cascade in slice form, and one
// search whose rounds generate on two workers — generate's per-target
// lists are exactly generateFull's filtered by the tier-2 rule, with equal
// priority, hash, terms, elim, admit and identity, in the same order; a
// kept near-miss carries its expansion exactly when it lies above the last
// level; and filtered plus kept equals the reference's total. The searches
// run past their first solution, so the bound tightens, and the test fails
// unless they met each case of the rule.
func TestGenerateMatchesFullScoring(t *testing.T) {
	type search struct {
		name    string
		spec    *pprm.Spec
		workers int
		steps   int
	}
	var searches []search
	// Seed 23's 3-variable function meets near-misses at the last level.
	for _, n := range []int{3, 4, 5} {
		seed := uint64(n)
		if n == 3 {
			seed = 23
		}
		spec, err := pprm.FromPerm(perm.Random(n, rng.New(seed)))
		if err != nil {
			t.Fatal(err)
		}
		searches = append(searches, search{fmt.Sprintf("n=%d", n), spec, 0, 800})
	}
	spec3, err := pprm.FromPerm(perm.Random(3, rng.New(9)))
	if err != nil {
		t.Fatal(err)
	}
	searches = append(searches,
		search{"n=3 workers=2", spec3, 2, 800},
		search{"7-wire cascade", circuit.Random(7, 6, circuit.GT, rng.New(7)).PPRM(), 0, 150})
	var cov genCoverage
	for _, sc := range searches {
		opts := DefaultOptions()
		opts.TotalSteps = sc.steps
		opts.Workers = sc.workers
		s := newSearcher(sc.spec, opts)
		ref := s.scoringClone()
		var want genResult
		unbounded := s.bestDepth
		pops, tight := 0, 0
		s.genHook = func(batch []popped, gens []genResult, bound int) {
			if bound < unbounded {
				tight += len(batch)
			}
			for i := range batch {
				pops++
				want.base = gens[i].base
				ref.generateFull(&batch[i], &want)
				checkGenerated(t, fmt.Sprintf("%s pop %d", sc.name, pops), s, &batch[i], &gens[i], &want, bound, &cov)
			}
		}
		r := s.run()
		if r.Err != nil {
			t.Fatalf("%s: %v", sc.name, r.Err)
		}
		if pops == tight || tight == 0 {
			t.Fatalf("%s: %d of %d pops generated under a bound a solution set, want some but not all",
				sc.name, tight, pops)
		}
	}
	if cov.belowLast == 0 || cov.lastSol == 0 || cov.lastNear == 0 || cov.wideTgt == 0 {
		t.Fatalf("the searches missed a case of the rule: %+v", cov)
	}
}

// checkGenerated compares generate's result got for pop p with the full
// reference want, under bound.
func checkGenerated(t *testing.T, where string, s *searcher, p *popped, got, want *genResult, bound int, cov *genCoverage) {
	t.Helper()
	childDepth := int(p.nd.depth) + 1
	if got.own != want.own || got.ownHash != want.ownHash || !slices.Equal(got.run, want.run) {
		t.Fatalf("%s: own expansion differs from the reference's", where)
	}
	if len(got.targets) != len(want.targets) {
		t.Fatalf("%s: %d targets, reference %d", where, len(got.targets), len(want.targets))
	}
	kept, total := 0, 0
	for ti := range want.targets {
		gt, wt := &got.targets[ti], &want.targets[ti]
		if gt.target != wt.target {
			t.Fatalf("%s: target %d is %d, reference %d", where, ti, gt.target, wt.target)
		}
		var filtered []pcand
		admitted := 0
		for i := range wt.cands {
			if c := &wt.cands[i]; keptByGenerate(c, s.n, childDepth, bound) {
				filtered = append(filtered, *c)
			}
		}
		total += len(wt.cands)
		kept += len(gt.cands)
		if len(gt.cands) != len(filtered) {
			t.Fatalf("%s target %d: %d candidates kept, the filtered reference has %d",
				where, gt.target, len(gt.cands), len(filtered))
		}
		for i := range filtered {
			g, w := &gt.cands[i], &filtered[i]
			if g.scored != w.scored || g.identity != w.identity {
				t.Fatalf("%s target %d candidate %d: %+v, reference %+v", where, gt.target, i, *g, *w)
			}
			nearMiss := int(w.terms) == s.n && !w.identity
			if queued := nearMiss && childDepth < bound-1; (g.sol >= 0) != queued {
				t.Fatalf("%s target %d candidate %d: near-miss expansion kept = %v, want %v",
					where, gt.target, i, g.sol >= 0, queued)
			}
			if g.sol >= 0 && !slices.Equal(solRun(got, g), solRun(want, w)) {
				t.Fatalf("%s target %d candidate %d: near-miss expansion differs", where, gt.target, i)
			}
			if w.admit {
				admitted++
			}
			switch {
			case w.identity && childDepth == bound-1:
				cov.lastSol++
			case nearMiss && childDepth == bound-1:
				cov.lastNear++
			case w.admit && childDepth == bound-2:
				cov.belowLast++
			}
		}
		if admitted > s.opts.GreedyK {
			cov.wideTgt++
		}
	}
	if got.filtered+kept != total {
		t.Fatalf("%s: %d filtered + %d kept, the reference scored %d", where, got.filtered, kept, total)
	}
}
