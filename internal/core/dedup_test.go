package core

import (
	"testing"

	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
	"repro/internal/verify"
)

func mustSpec(t *testing.T, p perm.Perm) *pprm.Spec {
	t.Helper()
	spec, err := pprm.FromPerm(p)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestTranspoDepthAwareReplacement pins the table's replacement contract:
// equal-or-deeper probes hit, strictly shallower probes miss and supersede
// on record, and forget only removes an entry that still carries the
// forgetting node's own depth.
func TestTranspoDepthAwareReplacement(t *testing.T) {
	tt := newTranspo(16)
	const h = 0xdeadbeef

	if tt.seen(h, 5) {
		t.Fatal("empty table reported a hit")
	}
	tt.record(h, 5)
	if !tt.seen(h, 5) || !tt.seen(h, 7) {
		t.Fatal("equal/deeper probe missed a recorded state")
	}
	if tt.seen(h, 3) {
		t.Fatal("shallower probe hit — it must supersede, not be pruned")
	}
	tt.record(h, 3)
	if !tt.seen(h, 3) {
		t.Fatal("superseded entry lost")
	}
	// A deeper re-record must not undo the shallower mark.
	tt.record(h, 9)
	if tt.seen(h, 2) {
		t.Fatal("deeper record overwrote the shallower depth")
	}
	// forget with the stale depth is a no-op; with the stored depth it
	// clears the entry.
	tt.forget(h, 5)
	if !tt.seen(h, 3) {
		t.Fatal("forget with mismatched depth removed the entry")
	}
	tt.forget(h, 3)
	if tt.seen(h, 3) {
		t.Fatal("forget with the stored depth left the entry behind")
	}
}

// TestTranspoCapacityReset: exceeding the entry cap clears the table and
// counts the dropped entries as evictions.
func TestTranspoCapacityReset(t *testing.T) {
	tt := newTranspo(4)
	for i := uint64(0); i < 4; i++ {
		tt.record(i, 1)
	}
	tt.record(100, 1) // fifth distinct state: triggers the generation reset
	if tt.evictions != 4 {
		t.Fatalf("evictions = %d, want 4", tt.evictions)
	}
	if !tt.seen(100, 1) {
		t.Fatal("entry recorded after the reset is missing")
	}
	if tt.seen(0, 1) {
		t.Fatal("pre-reset entry survived")
	}
}

// TestDedupReducesExpansions is the tentpole's core claim on a live
// search: with the transposition table on, the same function is solved
// with the same or a better circuit in fewer node expansions.
func TestDedupReducesExpansions(t *testing.T) {
	src := rng.New(42)
	functions := make([]perm.Perm, 0, 12)
	for i := 0; i < 12; i++ {
		functions = append(functions, perm.Random(3, src))
	}
	var stepsOff, stepsOn, hits int64
	for _, p := range functions {
		off := DefaultOptions()
		off.Dedup = false
		on := DefaultOptions()
		on.Dedup = true

		rOff, err := SynthesizePerm(p, off)
		if err != nil {
			t.Fatal(err)
		}
		rOn, err := SynthesizePerm(p, on)
		if err != nil {
			t.Fatal(err)
		}
		if !rOff.Found || !rOn.Found {
			t.Fatalf("%v: Found off=%v on=%v", p, rOff.Found, rOn.Found)
		}
		if err := verify.Circuit(verify.StageSearch, rOn.Circuit, p); err != nil {
			t.Fatal(err)
		}
		if rOn.Circuit.Len() > rOff.Circuit.Len() {
			t.Errorf("%v: dedup worsened gates: %d > %d", p, rOn.Circuit.Len(), rOff.Circuit.Len())
		}
		stepsOff += int64(rOff.Steps)
		stepsOn += int64(rOn.Steps)
		hits += rOn.DedupHits
		if rOff.DedupHits != 0 || rOff.DedupMisses != 0 {
			t.Errorf("dedup-off run reported table traffic: %d/%d", rOff.DedupHits, rOff.DedupMisses)
		}
	}
	if hits == 0 {
		t.Error("no transposition hits across 12 random 3-variable functions")
	}
	if stepsOn >= stepsOff {
		t.Errorf("dedup did not reduce expansions: %d on vs %d off", stepsOn, stepsOff)
	}
	t.Logf("expansions: %d off → %d on (%.1f%% fewer), %d hits",
		stepsOff, stepsOn, 100*float64(stepsOff-stepsOn)/float64(stepsOff), hits)
}

// TestDedupCountersSurface: hit/miss totals appear in Result iff Dedup is
// on, and misses bound the number of pushed nodes from below is not
// required — but hits+misses must equal the number of probes, i.e. be
// positive for any non-trivial search.
func TestDedupCountersSurface(t *testing.T) {
	src := rng.New(7)
	p := perm.Random(4, src)
	opts := DefaultOptions()
	opts.Dedup = true
	r, err := SynthesizePerm(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.DedupHits+r.DedupMisses == 0 {
		t.Error("dedup enabled but no probes recorded")
	}
	if r.DedupEvictions != 0 && r.Restarts == 0 {
		t.Errorf("evictions (%d) without restarts or caps", r.DedupEvictions)
	}
}

// TestDedupPortfolioCounters: the portfolio sums the dedup telemetry of
// its variants.
func TestDedupPortfolioCounters(t *testing.T) {
	src := rng.New(9)
	p := perm.Random(3, src)
	spec := mustSpec(t, p)
	opts := DefaultOptions()
	opts.Dedup = true
	opts.TotalSteps = 5000
	r := SynthesizePortfolio(spec, opts, 1)
	if !r.Found {
		t.Fatal("portfolio found nothing")
	}
	if r.DedupHits+r.DedupMisses == 0 {
		t.Error("portfolio result carries no dedup telemetry")
	}
}
