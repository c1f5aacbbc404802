package core

import (
	"testing"

	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
)

// The restart heuristic (Section IV-E) has two distinct exhaustion
// paths; each must be visible in Result.Restarts and Result.StopReason.

// TestRestartsExhaustedByFirstMoves lets restarts run until every first
// move from the root has been tried. The a'=b, b'=b spec has three
// admissible first moves, so exactly two restarts fire before the pool
// drains.
func TestRestartsExhaustedByFirstMoves(t *testing.T) {
	opts := DefaultOptions()
	opts.Dedup = false // keep the full three-move restart pool this test counts
	opts.MaxSteps = 5
	opts.TotalSteps = 1 << 20
	res := Synthesize(unsolvableSpec(t), opts)
	if res.Found {
		t.Fatal("synthesized a non-reversible function")
	}
	if res.Restarts != 2 {
		t.Errorf("Restarts = %d, want 2 (three first moves, root keeps one)", res.Restarts)
	}
	if res.StopReason != StopRestartsExhausted {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopRestartsExhausted)
	}
}

// TestRestartAfterQueueEmpty exercises the second restart trigger: the
// queue drains before stepsSinceRestart reaches MaxSteps, and the search
// reseeds from the next first move instead of giving up.
func TestRestartAfterQueueEmpty(t *testing.T) {
	opts := DefaultOptions()
	opts.Dedup = false      // keep the duplicate states that let the queue drain into a restart
	opts.MaxSteps = 1 << 20 // never triggers the step-count restart
	opts.TotalSteps = 1 << 20
	res := Synthesize(unsolvableSpec(t), opts)
	if res.Found {
		t.Fatal("synthesized a non-reversible function")
	}
	if res.Restarts == 0 {
		t.Error("queue drained but no restart fired")
	}
	if res.StopReason != StopRestartsExhausted {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopRestartsExhausted)
	}
}

// TestQueueExhaustedWithoutRestarts: with the heuristic disabled
// (MaxSteps = 0) a drained queue is a plain exhaustion, not a restart
// failure.
func TestQueueExhaustedWithoutRestarts(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSteps = 0
	opts.TotalSteps = 1 << 20
	res := Synthesize(unsolvableSpec(t), opts)
	if res.Found {
		t.Fatal("synthesized a non-reversible function")
	}
	if res.Restarts != 0 {
		t.Errorf("Restarts = %d with the heuristic disabled", res.Restarts)
	}
	if res.StopReason != StopQueueExhausted {
		t.Errorf("StopReason = %v, want %v", res.StopReason, StopQueueExhausted)
	}
}

// TestRestartResetsStores: a restart abandons the whole tree but the root
// at once (resetToRoot). At the round boundary where the first step-count
// restart is due, the step hook fires it, as the search loop would next,
// and checks that the node store then holds exactly the root and the
// first-move child, with nothing on its free stack; that the list and
// leaf stores are empty; that the run store holds exactly the two nodes'
// runs; and that checkArena holds.
func TestRestartResetsStores(t *testing.T) {
	spec, err := pprm.FromPerm(perm.Random(4, rng.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxGates = 8 // low enough that no solution comes before the restart
	opts.MaxSteps = 40
	opts.TotalSteps = 200
	s := newSearcher(spec, opts)
	checked := false
	s.stepHook = func(s *searcher) {
		if checked || s.stepsSinceRestart < s.opts.MaxSteps || s.bestSol >= 0 {
			return
		}
		checked = true
		if s.fr.n == 0 || s.fr.lists.used == 0 {
			t.Fatalf("%d children in %d lists queued before the restart: nothing to abandon", s.fr.n, s.fr.lists.used)
		}
		if !s.restart() {
			t.Fatal("no restart fired")
		}
		if used, free := s.ar.nodes.used, len(freeSlots(&s.ar.nodes)); used != 2 || free != 0 {
			t.Fatalf("node store: %d slots handed out, %d free; want the root and the first-move child only", used, free)
		}
		root, child := s.ar.at(rootSlot), s.ar.at(1)
		if root.parent != -1 || child.parent != rootSlot || child.spec < 0 {
			t.Fatalf("slots 0 and 1 hold %+v and %+v, want the root and its materialized first-move child", *root, *child)
		}
		checkRunStore(t, "list store", &s.fr.lists, nil)
		checkRunStore(t, "leaf store", &s.fr.leaves, nil)
		held := []storeRun{{root.spec, len(s.ar.run(root.spec))}, {child.spec, len(s.ar.run(child.spec))}}
		if want := held[0].k + held[1].k; int(s.ar.runs.used) != want {
			t.Fatalf("run store: %d elements handed out, the two runs hold %d", s.ar.runs.used, want)
		}
		checkRunStore(t, "run store", &s.ar.runs, held)
		checkArena(t, s, "after the restart")
	}
	if r := s.run(); r.Err != nil {
		t.Fatal(r.Err)
	}
	if !checked {
		t.Fatal("the search never reached a restart")
	}
}
