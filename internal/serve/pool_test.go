package serve

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestClaimSearchWorkersScalesWithQueueDepth pins the scheduling policy:
// a job executing against empty queues claims the whole parallel-search
// core budget, waiting jobs dilute the claim, and once the fair share
// drops to a single core the job still runs det-merge at one worker
// (claim 1). The options realRun builds therefore fingerprint the same at
// every queue depth: the same request gets the same circuit, and a drain
// checkpoint resumes whatever the queue looks like.
func TestClaimSearchWorkersScalesWithQueueDepth(t *testing.T) {
	s, err := New(Config{Workers: 2, SearchWorkers: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Workers are deliberately not started: enqueued jobs stay queued.
	var first *Job
	enqueue := func(steps int) {
		t.Helper()
		body := fmt.Sprintf(`{"spec":{"bench":"rd32"},"class":"batch","budget":{"steps":%d}}`, steps)
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		c, rerr := compileRequest(&req, s.cfg.Ceiling)
		if rerr != nil {
			t.Fatalf("compile: %v", rerr)
		}
		j, _, err := s.admit(c, req)
		if err != nil {
			t.Fatalf("admit: %v", err)
		}
		if first == nil {
			first = j
		}
	}
	fingerprints := map[uint64]int{}
	fingerprint := func() {
		opts := s.searchOptions(first)
		fingerprints[core.OptionsFingerprint(&opts)] = opts.Workers
	}

	if got := s.claimSearchWorkers(); got != 8 {
		t.Errorf("empty queue: claim = %d, want 8 (the whole budget)", got)
	}
	enqueue(1001) // depth 1: 8/2 = 4
	fingerprint()
	if got := s.claimSearchWorkers(); got != 4 {
		t.Errorf("depth 1: claim = %d, want 4", got)
	}
	enqueue(1002)
	enqueue(1003) // depth 3: 8/4 = 2
	fingerprint()
	if got := s.claimSearchWorkers(); got != 2 {
		t.Errorf("depth 3: claim = %d, want 2", got)
	}
	for i := 0; i < 4; i++ {
		enqueue(2000 + i)
	}
	// Depth 7: the share is a single core. The job keeps the det-merge
	// family at one worker rather than switching trajectories.
	if got := s.claimSearchWorkers(); got != 1 {
		t.Errorf("depth 7: claim = %d, want 1 (det-merge, one worker)", got)
	}
	fingerprint()
	for i := 0; i < 8; i++ {
		enqueue(3000 + i)
	}
	if got := s.claimSearchWorkers(); got != 1 {
		t.Errorf("depth 15: claim = %d, want 1 (det-merge, one worker)", got)
	}
	fingerprint()
	if len(fingerprints) != 1 {
		t.Errorf("realRun's options fingerprint changed with queue depth: %v (fingerprint → workers)", fingerprints)
	}

	// The knob off means off, whatever the queue looks like.
	s2, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := s2.claimSearchWorkers(); got != 0 {
		t.Errorf("SearchWorkers unset: claim = %d, want 0", got)
	}
}
