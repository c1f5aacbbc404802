package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/verify"
)

// testPerms are small functions whose synthesis takes enough steps to
// interrupt meaningfully. (The full 14-example determinism matrix lives in
// the root package's resume tests; internal/bench imports core, so it
// cannot be imported from here.)
var testPerms = map[string]perm.Perm{
	"fredkin":    perm.MustFromInts([]int{0, 1, 2, 3, 4, 6, 5, 7}),
	"shiftright": perm.MustFromInts([]int{0, 4, 1, 5, 2, 6, 3, 7}),
	"swap4":      perm.MustFromInts([]int{0, 2, 1, 3, 8, 10, 9, 11, 4, 6, 5, 7, 12, 14, 13, 15}),
}

func resumeTestOptions() Options {
	o := DefaultOptions()
	o.MaxSteps = 200 // small enough to pull restarts into the interrupted window
	return o
}

func specFor(t *testing.T, p perm.Perm) *pprm.Spec {
	t.Helper()
	spec, err := pprm.FromPerm(p)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// compareResults asserts the resumed run reproduced the uninterrupted one.
func compareResults(t *testing.T, label string, full, got Result) {
	t.Helper()
	if got.Found != full.Found || got.Steps != full.Steps || got.Nodes != full.Nodes ||
		got.Restarts != full.Restarts || got.StopReason != full.StopReason ||
		got.DedupHits != full.DedupHits || got.DedupMisses != full.DedupMisses ||
		got.DedupEvictions != full.DedupEvictions || got.PeakQueueBytes != full.PeakQueueBytes {
		t.Fatalf("%s: resumed run diverged:\n full %+v\n got %+v", label, full, got)
	}
	if full.Found {
		if got.Circuit.String() != full.Circuit.String() {
			t.Fatalf("%s: resumed circuit %s != uninterrupted %s", label, got.Circuit, full.Circuit)
		}
	}
}

// TestResumeAfterStepLimit interrupts every test function at a range of
// step budgets via TotalSteps, resumes from the final checkpoint, and
// requires the continuation to be indistinguishable from the uninterrupted
// run — same circuit, same counters, verified by simulation.
func TestResumeAfterStepLimit(t *testing.T) {
	for name, p := range testPerms {
		t.Run(name, func(t *testing.T) {
			spec := specFor(t, p)
			full := Synthesize(spec, resumeTestOptions())
			if !full.Found {
				t.Fatalf("uninterrupted run failed: %+v", full)
			}
			if err := verify.Circuit(verify.StageSearch, full.Circuit, p); err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 7, full.Steps / 2, full.Steps - 1} {
				if k < 1 || k >= full.Steps {
					continue
				}
				path := filepath.Join(t.TempDir(), "run.ckpt")
				opts := resumeTestOptions()
				opts.TotalSteps = k
				opts.Checkpoint = Checkpoint{Path: path, EverySteps: 1 << 30}
				seg1 := Synthesize(spec, opts)
				if seg1.StopReason != StopStepLimit {
					t.Fatalf("k=%d: segment 1 stopped for %v", k, seg1.StopReason)
				}
				if seg1.Checkpoints == 0 {
					t.Fatalf("k=%d: no final checkpoint written", k)
				}
				opts.TotalSteps = 0
				got, err := ResumeContext(context.Background(), spec, opts, path)
				if err != nil {
					t.Fatalf("k=%d: resume: %v", k, err)
				}
				if !got.Resumed {
					t.Fatalf("k=%d: result not marked resumed", k)
				}
				compareResults(t, name, full, got)
				if err := verify.Circuit(verify.StageSearch, got.Circuit, p); err != nil {
					t.Fatalf("k=%d: resumed circuit fails verification: %v", k, err)
				}
			}
		})
	}
}

// TestResumeAfterCancelMidStep cancels the context from inside the search
// (via the trace hook, between arbitrary pops) so the interrupt lands
// mid-step, and checks the rollback logic hands the pending node back to
// the resumed run without skipping or double-counting it.
func TestResumeAfterCancelMidStep(t *testing.T) {
	p := testPerms["shiftright"]
	spec := specFor(t, p)
	full := Synthesize(spec, resumeTestOptions())
	if !full.Found {
		t.Fatalf("uninterrupted run failed: %+v", full)
	}
	for _, cancelAt := range []int{1, 3, full.Steps - 1} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		pops := 0
		opts := resumeTestOptions()
		opts.Checkpoint = Checkpoint{Path: path, EverySteps: 1 << 30}
		opts.Trace = func(e Event) {
			if e.Kind == EventPop {
				pops++
				if pops == cancelAt {
					cancel()
				}
			}
		}
		seg1 := SynthesizeContext(ctx, spec, opts)
		cancel()
		if seg1.StopReason != StopCanceled && seg1.StopReason != StopSolved {
			t.Fatalf("cancelAt=%d: segment 1 stopped for %v", cancelAt, seg1.StopReason)
		}
		if seg1.StopReason == StopSolved {
			continue // canceled too late to matter
		}
		opts.Trace = nil
		got, err := ResumeContext(context.Background(), spec, opts, path)
		if err != nil {
			t.Fatalf("cancelAt=%d: resume: %v", cancelAt, err)
		}
		compareResults(t, "shiftright", full, got)
		if err := verify.Circuit(verify.StageSearch, got.Circuit, p); err != nil {
			t.Fatalf("cancelAt=%d: %v", cancelAt, err)
		}
	}
}

// TestResumeChain interrupts a run repeatedly — segment after segment, one
// checkpoint file carried through — and checks the final answer still
// matches the uninterrupted run.
func TestResumeChain(t *testing.T) {
	p := testPerms["swap4"]
	spec := specFor(t, p)
	full := Synthesize(spec, resumeTestOptions())
	if !full.Found {
		t.Fatalf("uninterrupted run failed: %+v", full)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opts := resumeTestOptions()
	opts.Checkpoint = Checkpoint{Path: path, EverySteps: 1 << 30}
	stride := full.Steps/5 + 1

	opts.TotalSteps = stride
	res := Synthesize(spec, opts)
	for seg := 0; res.StopReason == StopStepLimit; seg++ {
		if seg > 10 {
			t.Fatal("chain did not terminate")
		}
		opts.TotalSteps += stride
		var err error
		res, err = ResumeContext(context.Background(), spec, opts, path)
		if err != nil {
			t.Fatalf("segment %d: %v", seg, err)
		}
	}
	compareResults(t, "swap4", full, res)
	if err := verify.Circuit(verify.StageSearch, res.Circuit, p); err != nil {
		t.Fatal(err)
	}
}

// TestPeriodicCheckpointCadence checks EverySteps actually produces
// periodic snapshots, not just the final flush.
func TestPeriodicCheckpointCadence(t *testing.T) {
	p := testPerms["swap4"]
	spec := specFor(t, p)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opts := resumeTestOptions()
	opts.TotalSteps = 50
	opts.Checkpoint = Checkpoint{Path: path, EverySteps: 10}
	res := Synthesize(spec, opts)
	// 50 steps at one checkpoint per 10, plus the final flush.
	if res.Checkpoints < 5 {
		t.Fatalf("expected ≥5 checkpoints, got %d", res.Checkpoints)
	}
	if _, err := snapshot.ReadFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointWriteFaults injects a crash into every operation of every
// periodic checkpoint write and requires: the search itself is unaffected
// (same circuit), the failure is reported through OnError, and the file
// left on disk is either a usable snapshot (resume reproduces the
// uninterrupted run) or typed-error garbage (caller falls back to fresh
// start) — never a panic, never a silently wrong circuit.
func TestCheckpointWriteFaults(t *testing.T) {
	p := testPerms["shiftright"]
	spec := specFor(t, p)
	full := Synthesize(spec, resumeTestOptions())
	if !full.Found {
		t.Fatalf("uninterrupted run failed: %+v", full)
	}

	// Count the ops of one checkpoint write.
	probe := chaos.New(nil)
	{
		opts := resumeTestOptions()
		opts.TotalSteps = 3
		opts.Checkpoint = Checkpoint{Path: filepath.Join(t.TempDir(), "p.ckpt"), EverySteps: 1 << 30, FS: probe}
		Synthesize(spec, opts)
	}
	opsPerWrite := probe.Ops()

	for crashAt := 0; crashAt < opsPerWrite; crashAt++ {
		for _, tear := range []int{0, 33} {
			dir := t.TempDir()
			path := filepath.Join(dir, "run.ckpt")
			var reported []error
			ffs := chaos.New(nil)
			ffs.CrashAt(crashAt, tear)
			opts := resumeTestOptions()
			opts.Checkpoint = Checkpoint{
				Path:       path,
				EverySteps: 2,
				FS:         ffs,
				OnError:    func(err error) { reported = append(reported, err) },
			}
			res := Synthesize(spec, opts)
			if !res.Found || res.Circuit.String() != full.Circuit.String() {
				t.Fatalf("crashAt=%d: checkpoint fault changed the search result: %+v", crashAt, res)
			}
			if !ffs.Crashed() {
				t.Fatalf("crashAt=%d: crash point never reached", crashAt)
			}
			if len(reported) == 0 {
				t.Fatalf("crashAt=%d: write failure not reported via OnError", crashAt)
			}

			// Whatever is on disk must resume cleanly or fail typed.
			got, err := ResumeContext(context.Background(), spec, resumeTestOptions(), path)
			switch {
			case err == nil:
				if !got.Found {
					t.Fatalf("crashAt=%d: resume from partial run found nothing", crashAt)
				}
				if verr := verify.Circuit(verify.StageSearch, got.Circuit, p); verr != nil {
					t.Fatalf("crashAt=%d: resumed circuit fails verification: %v", crashAt, verr)
				}
				if got.Circuit.String() != full.Circuit.String() {
					t.Fatalf("crashAt=%d: resumed circuit %s != %s", crashAt, got.Circuit, full.Circuit)
				}
			case errors.Is(err, os.ErrNotExist),
				errors.Is(err, snapshot.ErrCorrupt),
				errors.Is(err, snapshot.ErrNotSnapshot),
				errors.Is(err, snapshot.ErrVersionSkew),
				errors.Is(err, ErrInvalidState):
				// Typed recovery error: graceful degradation, caller
				// starts fresh.
			default:
				t.Fatalf("crashAt=%d: untyped resume error %v", crashAt, err)
			}
		}
	}
}

// TestResumeRejectsMismatches covers the typed sentinel errors.
func TestResumeRejectsMismatches(t *testing.T) {
	p := testPerms["fredkin"]
	spec := specFor(t, p)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opts := resumeTestOptions()
	opts.TotalSteps = 2
	opts.Checkpoint = Checkpoint{Path: path, EverySteps: 1 << 30}
	if res := Synthesize(spec, opts); res.StopReason != StopStepLimit {
		t.Fatalf("setup run stopped for %v", res.StopReason)
	}
	opts.TotalSteps = 0

	other := specFor(t, testPerms["shiftright"])
	if _, err := ResumeContext(context.Background(), other, opts, path); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("different spec: got %v, want ErrSpecMismatch", err)
	}

	changed := opts
	changed.GreedyK = 2
	if _, err := ResumeContext(context.Background(), spec, changed, path); !errors.Is(err, ErrOptionsMismatch) {
		t.Fatalf("different options: got %v, want ErrOptionsMismatch", err)
	}

	// Budget changes are explicitly allowed.
	budget := opts
	budget.TotalSteps = 1 << 20
	budget.TimeLimit = time.Hour
	budget.FirstSolution = true
	if _, err := ResumeContext(context.Background(), spec, budget, path); err != nil {
		t.Fatalf("budget-only change rejected: %v", err)
	}
}

// TestResumeRejectsInvalidStates tampers with decoded snapshots in ways the
// CRC cannot catch (we re-encode after tampering) and requires typed
// ErrInvalidState — the semantic validation layer, as opposed to the
// snapshot package's structural one.
func TestResumeRejectsInvalidStates(t *testing.T) {
	p := testPerms["fredkin"]
	spec := specFor(t, p)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opts := resumeTestOptions()
	opts.TotalSteps = 5
	opts.Checkpoint = Checkpoint{Path: path, EverySteps: 1 << 30}
	if res := Synthesize(spec, opts); res.StopReason != StopStepLimit {
		t.Fatalf("setup run stopped for %v", res.StopReason)
	}
	opts.TotalSteps = 0
	base, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// interior has a child, so the search expanded and materialized it.
	interior := 0
	for _, n := range base.Nodes {
		interior = max(interior, n.Parent)
	}
	tampers := map[string]func(st *snapshot.State){
		"dangling parent":    func(st *snapshot.State) { st.Nodes[len(st.Nodes)-1].Parent = len(st.Nodes) },
		"self parent":        func(st *snapshot.State) { st.Nodes[1].Parent = 1 },
		"bad target":         func(st *snapshot.State) { st.Nodes[1].Target = 99 },
		"factor hits target": func(st *snapshot.State) { st.Nodes[1].Factor = 1 << uint(st.Nodes[1].Target) },
		"root factor":        func(st *snapshot.State) { st.Nodes[0].Factor = 1 },
		// Only an expanded node has children, and expanding a node
		// materializes it; its children derive their state from it.
		"node under a lazy parent": func(st *snapshot.State) { st.Nodes[interior].Materialized = false },
		"queued out of range": func(st *snapshot.State) {
			st.Queued[0] = len(st.Nodes) + 5
		},
		"queued duplicate": func(st *snapshot.State) {
			st.Queued = append(st.Queued, st.Queued[0])
		},
		// The search records only identity children as solutions. The
		// swap keeps every leaf queued or the solution.
		"queued node claimed as solution": func(st *snapshot.State) {
			last := len(st.Queued) - 1
			st.BestSol, st.Queued[last] = st.Queued[last], st.BestSol
			if st.Queued[last] < 0 {
				st.Queued = st.Queued[:last]
			}
		},
		"counter underflow":     func(st *snapshot.State) { st.SolSteps = st.Steps + 1 },
		"node counter low":      func(st *snapshot.State) { st.NodesCreated = 0 },
		"tt dropped":            func(st *snapshot.State) { st.TT = nil },
		"next first move":       func(st *snapshot.State) { st.NextFirstMove = len(st.FirstMoves) + 1 },
		"root not materialized": func(st *snapshot.State) { st.Nodes[0].Materialized = false },
		// A restart applies the first move to the root: a factor holding
		// its own target is not a reversible substitution.
		"first move factor hits target": func(st *snapshot.State) {
			st.FirstMoves[0].Factor |= 1 << uint(st.FirstMoves[0].Target)
		},
		// Every table node is queued, the best solution, or an ancestor
		// of one; the arena's child counts depend on it.
		"unqueued leaf": func(st *snapshot.State) { st.Queued = st.Queued[1:] },
		"interior node queued": func(st *snapshot.State) {
			st.Queued = append(st.Queued, st.Nodes[st.Queued[0]].Parent)
		},
		// The queue pops by (priority, node ID), a strict order only while
		// IDs are unique and below the counter that numbers later nodes.
		"queued pair out of order": func(st *snapshot.State) {
			st.Queued[0], st.Queued[1] = st.Queued[1], st.Queued[0]
		},
		"queued ID duplicated": func(st *snapshot.State) {
			st.Nodes = append(st.Nodes, st.Nodes[st.Queued[0]])
			st.Queued = slices.Insert(st.Queued, 1, len(st.Nodes)-1)
		},
		"ID not below node counter": func(st *snapshot.State) { st.Nodes[st.Queued[len(st.Queued)-1]].ID = st.NodesCreated },
	}
	if len(base.Queued) < 2 {
		t.Fatalf("setup run queued %d children, want at least 2", len(base.Queued))
	}
	for name, tamper := range tampers {
		st, err := snapshot.Decode(snapshot.Encode(base))
		if err != nil {
			t.Fatal(err)
		}
		tamper(st)
		// restoreSearcher, not ResumeStateContext: a panic must fail the
		// test instead of being recovered into ErrInvalidState.
		_, err = restoreSearcher(spec, opts, st)
		if !errors.Is(err, ErrInvalidState) && !errors.Is(err, ErrSpecMismatch) {
			t.Errorf("%s: got %v, want ErrInvalidState", name, err)
		}
	}
}

// TestRestoreDerivesEveryNode pins restore's derivation node for node. It
// stops live searches at round boundaries — the first three, every 50th,
// the first after each restart and the first after a new best solution —
// restores each one's checkpoint, and walks both queues in precedence
// order: every queued node, the best solution and all of their ancestors
// must have the live node's depth, terms, elimination, priority,
// materialized expansion and substitution, and, with the transposition
// table on (its only reader), its state hash.
func TestRestoreDerivesEveryNode(t *testing.T) {
	p := testPerms["shiftright"]
	spec := specFor(t, p)
	for _, dedup := range []bool{true, false} {
		for _, workers := range []int{0, 4} {
			where := fmt.Sprintf("dedup=%v workers=%d", dedup, workers)
			opts := DefaultOptions()
			opts.Dedup = dedup
			opts.Workers = workers
			// Budgets under which the run restarts, then solves.
			opts.MaxSteps = 50
			if !dedup {
				opts.MaxSteps = 200
			}
			s := newSearcher(spec, opts)
			rounds, restarts, bestSol := 0, 0, int32(-1)
			afterRestart, afterSolution := 0, 0
			s.stepHook = func(live *searcher) {
				rounds++
				restarted, solved := live.restarts != restarts, live.bestSol != bestSol
				restarts, bestSol = live.restarts, live.bestSol
				if rounds > 3 && rounds%50 != 0 && !restarted && !solved {
					return
				}
				if restarted {
					afterRestart++
				}
				if solved {
					afterSolution++
				}
				compareRestored(t, fmt.Sprintf("%s round %d", where, rounds), live, spec, opts)
			}
			if r := s.run(); !r.Found {
				t.Fatalf("%s: run found nothing: %+v", where, r)
			}
			if afterRestart == 0 || afterSolution == 0 {
				t.Fatalf("%s: %d boundaries after a restart, %d after a solution; want both", where, afterRestart, afterSolution)
			}
		}
	}
}

// compareRestored restores live's checkpoint and compares the two
// searchers node for node (see TestRestoreDerivesEveryNode).
func compareRestored(t *testing.T, where string, live *searcher, spec *pprm.Spec, opts Options) {
	t.Helper()
	st, err := snapshot.Decode(snapshot.Encode(live.exportState()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := restoreSearcher(spec, opts, st)
	if err != nil {
		t.Fatalf("%s: restore: %v", where, err)
	}
	// Both searchers keep most queued children as leaves, not always in the
	// same lists; compare what they stand for, then their parent chains.
	want, have := live.queuedInOrder(), got.queuedInOrder()
	if len(want) != len(have) {
		t.Fatalf("%s: %d queued, restored %d", where, len(want), len(have))
	}
	if (live.bestSol < 0) != (got.bestSol < 0) || live.bestDepth != got.bestDepth {
		t.Fatalf("%s: best depth %d, restored %d", where, live.bestDepth, got.bestDepth)
	}
	if live.bestSol >= 0 {
		want = append(want, queuedChild{priority: live.priorityOf(live.bestSol), slot: live.bestSol})
		have = append(have, queuedChild{priority: got.priorityOf(got.bestSol), slot: got.bestSol})
	}
	same := func(a, b node, sa, sb *pprm.Spec, ma, mb int64, pa, pb float64) {
		elim := func(s *searcher, n node) int32 {
			if n.parent < 0 {
				return 0
			}
			return s.ar.at(n.parent).terms - n.terms
		}
		if a.id != b.id || a.target != b.target || a.factor != b.factor || a.depth != b.depth ||
			a.terms != b.terms || opts.Dedup && a.hash != b.hash || elim(live, a) != elim(got, b) ||
			math.Float64bits(pa) != math.Float64bits(pb) ||
			(sa == nil) != (sb == nil) || sa != nil && !sa.Equal(sb) || ma != mb {
			t.Fatalf("%s: node %d restored as %+v (materialized %v), live %+v (materialized %v)",
				where, a.id, b, sb != nil, a, sa != nil)
		}
	}
	for k := range want {
		a, b := live.childNode(&want[k]), got.childNode(&have[k])
		a.hash = live.childHash(&want[k])
		if want[k].slot >= 0 && math.Float64bits(want[k].priority) != math.Float64bits(live.priorityOf(want[k].slot)) {
			t.Fatalf("%s: node %d queued at %v, derived %v", where, a.id, want[k].priority, live.priorityOf(want[k].slot))
		}
		b.hash = got.childHash(&have[k])
		same(a, b, childExpansion(live, &want[k]), childExpansion(got, &have[k]),
			live.childMem(&want[k]), got.childMem(&have[k]), want[k].priority, have[k].priority)
		for i, j := a.parent, b.parent; ; {
			if i < 0 || j < 0 {
				if i != j {
					t.Fatalf("%s: node %d parent chains differ in length", where, a.id)
				}
				break
			}
			pa, pb := live.ar.at(i), got.ar.at(j)
			same(*pa, *pb, live.expansion(i), got.expansion(j), live.ar.memOf(i), got.ar.memOf(j),
				live.priorityOf(i), got.priorityOf(j))
			i, j = pa.parent, pb.parent
		}
	}
	if live.queueBytes != got.queueBytes {
		t.Fatalf("%s: queue bytes %d, restored %d", where, live.queueBytes, got.queueBytes)
	}
}

// childExpansion is the materialized expansion of the queued child c, or
// nil: a leaf is always lazy.
func childExpansion(s *searcher, c *queuedChild) *pprm.Spec {
	if c.slot < 0 {
		return nil
	}
	return s.expansion(c.slot)
}

// TestResumeMissingFile keeps the "no checkpoint yet" path typed.
func TestResumeMissingFile(t *testing.T) {
	p := testPerms["fredkin"]
	spec := specFor(t, p)
	_, err := ResumeContext(context.Background(), spec, resumeTestOptions(),
		filepath.Join(t.TempDir(), "none.ckpt"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("got %v, want ErrNotExist", err)
	}
}

// TestResumeRootWithoutChildren resumes the checkpoint of a run whose root
// queued no child: the root's commit leaves NextFirstMove at 1 with no
// first move recorded, and restore must accept the file it wrote.
func TestResumeRootWithoutChildren(t *testing.T) {
	p := perm.Random(3, rng.New(34))
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opts := BasicOptions()
	opts.MaxGates = 30
	opts.Checkpoint = Checkpoint{Path: path, EverySteps: 1}
	spec := specFor(t, p)
	res := Synthesize(spec, opts)
	if res.Checkpoints == 0 {
		t.Fatalf("no checkpoint written: %+v", res)
	}
	st, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.FirstMoves) != 0 || st.NextFirstMove != 1 {
		t.Fatalf("checkpoint holds %d first moves, next %d; want none, next 1", len(st.FirstMoves), st.NextFirstMove)
	}
	opts.Checkpoint = Checkpoint{}
	got, err := ResumeContext(context.Background(), spec, opts, path)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	compareResults(t, "root without children", res, got)
}

// TestResumeDeadlineSpansSegments: TimeLimit counts cumulative elapsed, so
// a resume of a run whose budget is already spent stops immediately.
func TestResumeDeadlineSpansSegments(t *testing.T) {
	p := testPerms["swap4"]
	spec := specFor(t, p)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	opts := resumeTestOptions()
	opts.TotalSteps = 3
	opts.Checkpoint = Checkpoint{Path: path, EverySteps: 1 << 30}
	if res := Synthesize(spec, opts); res.StopReason != StopStepLimit {
		t.Fatalf("setup run stopped for %v", res.StopReason)
	}
	st, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Elapsed = time.Hour // pretend the first segment burned the budget
	opts.TotalSteps = 0
	opts.TimeLimit = time.Minute
	res, err := ResumeStateContext(context.Background(), spec, opts, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopDeadline {
		t.Fatalf("stopped for %v, want StopDeadline", res.StopReason)
	}
	if res.Elapsed < time.Hour {
		t.Fatalf("cumulative elapsed %v lost the prior segments", res.Elapsed)
	}
}
