package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// TestWideTrajectoryGolden pins the search paths that the 3-variable and
// worked-example goldens never reach, in both trajectory families:
//
//   - random cascades on 10–16 wires under the Table V options, where one
//     expansion queues dozens of children;
//   - a 4-variable run whose lowered queue cap makes the node-count prune
//     fire;
//   - a run whose MaxMemory ceiling prunes the queue and then resets the
//     transposition table;
//   - a run that restarts (MaxSteps).
//
// For two of the runs it also pins the FNV-1a hash of the encoded snapshot
// (elapsed time zeroed) at three round boundaries, so a change to what is
// queued, in what order, shows even where the final counters agree. The
// test asserts that each run really reaches the path it is there for.
func TestWideTrajectoryGolden(t *testing.T) {
	type run struct {
		name      string
		spec      *pprm.Spec
		opts      func(*Options)
		queueCap  int   // lowered node-count cap; 0 keeps maxQueue
		snapshots []int // step counts: the first round boundary at or past each is hashed
		want      func(r Result, workers, prunes int) error
	}
	var runs []run
	for i := 0; i < 12; i++ {
		n, gates := 10+i%7, 5+i%6
		c := circuit.Random(n, gates, circuit.GT, rng.New(uint64(900+i)))
		rc := run{
			name: fmt.Sprintf("wide-%02d n=%d gates=%d", i, n, gates),
			spec: c.PPRM(),
			opts: func(o *Options) {
				o.FirstSolution = true
				o.MaxGates = 40
				o.TotalSteps = 5000
			},
		}
		if i == 4 {
			rc.snapshots = []int{1, 5, 10}
		}
		runs = append(runs, rc)
	}
	perm4, err := pprm.FromPerm(perm.Random(4, rng.New(7)))
	if err != nil {
		t.Fatal(err)
	}
	perm5, err := pprm.FromPerm(perm.Random(5, rng.New(8)))
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs,
		run{
			name:      "queue-cap n=4",
			spec:      perm4,
			opts:      func(o *Options) { o.TotalSteps = 3000 },
			queueCap:  200,
			snapshots: []int{20, 300, 900},
			want: func(_ Result, _, prunes int) error {
				if prunes == 0 {
					return fmt.Errorf("the queue cap never pruned")
				}
				return nil
			},
		},
		run{
			name: "memory-reset n=5",
			spec: perm5,
			opts: func(o *Options) {
				o.MaxSteps = 0 // no restarts: every eviction is a memory reset
				o.TotalSteps = 1500
				o.MaxMemory = 32 << 10
			},
			want: func(r Result, workers, prunes int) error {
				// A det-merge round commits a whole batch, so the ceiling
				// prunes, resets and still stops within one round, where
				// the round hook cannot see the prune.
				if workers > 0 && r.StopReason == StopMemoryLimit {
					prunes = max(prunes, 1)
				}
				if prunes == 0 || r.DedupEvictions == 0 {
					return fmt.Errorf("%d prunes, %d evictions: the ceiling must prune and then reset the table", prunes, r.DedupEvictions)
				}
				return nil
			},
		},
		run{
			name: "restarts n=5",
			spec: perm5,
			opts: func(o *Options) {
				o.MaxSteps = 30
				o.TotalSteps = 600
			},
			want: func(r Result, _, _ int) error {
				if r.Restarts < 3 {
					return fmt.Errorf("only %d restarts", r.Restarts)
				}
				return nil
			},
		},
	)

	var lines []string
	for _, rc := range runs {
		for _, w := range []int{0, 1} {
			opts := DefaultOptions()
			rc.opts(&opts)
			opts.Workers = w
			s := newSearcher(rc.spec, opts)
			if rc.queueCap > 0 {
				s.queueCap = rc.queueCap
			}
			var snaps []string
			prunes, last := 0, 0
			s.stepHook = func(s *searcher) {
				if n := queuedChildren(s); n < last-s.opts.stride() {
					prunes++
				}
				last = queuedChildren(s)
				if k := len(snaps); k < len(rc.snapshots) && s.steps >= rc.snapshots[k] {
					st := s.exportState()
					st.Elapsed = 0
					h := fnv.New64a()
					h.Write(snapshot.Encode(st))
					snaps = append(snaps, fmt.Sprintf("%s %s snapshot steps=%d fnv=%016x", family(w), rc.name, s.steps, h.Sum64()))
				}
			}
			r := s.run()
			if rc.want != nil {
				if err := rc.want(r, w, prunes); err != nil {
					t.Errorf("%s %s: %v", family(w), rc.name, err)
				}
			}
			if len(snaps) != len(rc.snapshots) {
				t.Errorf("%s %s: %d of %d snapshot points reached", family(w), rc.name, len(snaps), len(rc.snapshots))
			}
			lines = append(lines, fmt.Sprintf("%s %s %s", family(w), rc.name, trajectoryLine(t, r)))
			lines = append(lines, snaps...)
		}
	}
	checkGolden(t, "wide.golden", lines)
}

// queuedChildren is the number of queued, unexpanded children.
func queuedChildren(s *searcher) int { return s.fr.n }
