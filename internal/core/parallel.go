package core

// Round structure of the search loop (run, in synth.go). Each round pops up
// to stride nodes, generates their candidates — the PPRM probe/score/sort
// math, the bulk of an expansion's cost — and then commits every queue,
// table and counter mutation sequentially in pop order:
//
//   - stride 1 (Workers = 0): one pop per round, the paper's Fig. 4 loop;
//   - stride batchStride (Workers ≥ 1): the deterministic-merge round,
//     whose generation fans out across Workers goroutines. The stride is a
//     constant, never derived from the worker count, so the search
//     trajectory, all Result counters, and every checkpoint are
//     byte-identical across Workers=1, 4, 8 and across runs.

import (
	"sync"
	"sync/atomic"
)

// batchStride is how many priority-queue pops a deterministic-merge round
// commits. It is a fixed constant, independent of the worker count — that
// independence is the entire determinism argument: rounds select, generate,
// and merge the same nodes in the same order no matter how many goroutines
// did the generating. It equals pollStride, so a det-merge run polls its
// limits once per full round.
const batchStride = pollStride

// stride resolves the pops per round from Workers; see the file comment.
func (o *Options) stride() int {
	if o.Workers > 0 {
		return batchStride
	}
	return 1
}

// scoringClone returns a searcher stripped to the state generate reads —
// options, weights, widths — with its own scratch buffers and no queue,
// table, or counters. Each extra worker generates through its own clone,
// so no scratch buffer is touched by two goroutines.
func (s *searcher) scoringClone() *searcher {
	return &searcher{
		opts:      s.opts,
		alpha:     s.alpha,
		beta:      s.beta,
		gamma:     s.gamma,
		n:         s.n,
		initTerms: s.initTerms,
	}
}

// generateBatch runs generate for every batch node, fanning the work out
// across the scratch clones. Assignment of nodes to clones is racy (an
// atomic claim counter) and deliberately irrelevant: generate is a pure
// function of the node and the shared scoring configuration, so gens[i]
// is identical no matter which clone computed it.
func generateBatch(clones []*searcher, batch []*node, gens []genResult) {
	w := min(len(clones), len(batch))
	if w <= 1 {
		for i, parent := range batch {
			clones[0].generate(parent, &gens[i])
		}
		return
	}
	var next atomic.Int64
	claim := func(c *searcher) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(batch) {
				return
			}
			c.generate(batch[i], &gens[i])
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func(c *searcher) {
			defer wg.Done()
			claim(c)
		}(clones[k])
	}
	claim(clones[0]) // the coordinator takes a share too
	wg.Wait()
}
