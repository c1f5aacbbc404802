package core

import (
	"slices"
	"testing"

	"repro/internal/optimal"
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

// TestTranspoMatchesMapModel drives the open-addressed table and a
// map[uint64]int32 reference through the same random record / seen /
// forget / reset sequences and compares every answer, the counters, and
// the exported contents. The keys are drawn from a small pool whose members
// share their low bits (including key 0 and keys homed in the last slots),
// so probe clusters are long, wrap past the end of the array, and forget's
// backward shift really moves entries; the small limit makes the
// limit-triggered clear fire many times.
func TestTranspoMatchesMapModel(t *testing.T) {
	src := rng.New(5)
	pool := []uint64{0}
	for len(pool) < 96 {
		// Low 6 bits from a handful of home slots, near the top of a
		// 64-slot array among them, so that clusters wrap.
		home := []uint64{0, 1, 61, 62, 63}[src.Intn(5)]
		pool = append(pool, src.Uint64()<<6|home)
	}
	for round := 0; round < 20; round++ {
		const limit = 80
		tt := newTranspo(limit)
		ref := map[uint64]int32{}
		var evictions int64
		var hits, misses int64
		for op := 0; op < 4000; op++ {
			h := pool[src.Intn(len(pool))]
			d := src.Intn(6)
			switch r := src.Intn(100); {
			case r < 45:
				if _, ok := ref[h]; !ok && len(ref) >= limit {
					evictions += int64(len(ref))
					clear(ref)
				}
				if old, ok := ref[h]; !ok || int32(d) < old {
					ref[h] = int32(d)
				}
				tt.record(h, d)
			case r < 75:
				old, ok := ref[h]
				want := ok && int(old) <= d
				if want {
					hits++
				} else {
					misses++
				}
				if got := tt.seen(h, d); got != want {
					t.Fatalf("round %d op %d: seen(%#x, %d) = %v, want %v", round, op, h, d, got, want)
				}
			case r < 99:
				if old, ok := ref[h]; ok && int(old) == d {
					delete(ref, h)
				}
				tt.forget(h, d)
			default:
				evictions += int64(len(ref))
				clear(ref)
				tt.reset()
			}
			if tt.len() != len(ref) {
				t.Fatalf("round %d op %d: table holds %d entries, reference %d", round, op, tt.len(), len(ref))
			}
		}
		if tt.hits != hits || tt.misses != misses || tt.evictions != evictions {
			t.Fatalf("round %d: counters hits/misses/evictions = %d/%d/%d, want %d/%d/%d",
				round, tt.hits, tt.misses, tt.evictions, hits, misses, evictions)
		}
		if evictions == 0 {
			t.Fatalf("round %d: the limit-triggered clear never fired", round)
		}
		keys, depths := tt.export()
		if len(keys) != len(ref) || !slices.IsSorted(keys) {
			t.Fatalf("round %d: export returned %d keys (sorted %v), want %d sorted", round, len(keys), slices.IsSorted(keys), len(ref))
		}
		for i, k := range keys {
			if d, ok := ref[k]; !ok || d != depths[i] {
				t.Fatalf("round %d: export has %#x at depth %d, reference %d (present %v)", round, k, depths[i], d, ok)
			}
		}
		restored := newTranspo(limit)
		for i, k := range keys {
			restored.load(k, depths[i])
		}
		keys2, depths2 := restored.export()
		if !slices.Equal(keys, keys2) || !slices.Equal(depths, depths2) {
			t.Fatalf("round %d: export → load → export changed the table", round)
		}
		for k, d := range ref {
			if !restored.seen(k, int(d)) || (d > 0 && restored.seen(k, int(d)-1)) {
				t.Fatalf("round %d: restored table lost the depth of %#x", round, k)
			}
		}
	}
}

// TestTranspoGrowsAndWraps fills a table far past its initial array with
// keys that all share one home slot near the end, then forgets them in an
// order that shifts entries back across the wrap point.
func TestTranspoGrowsAndWraps(t *testing.T) {
	tt := newTranspo(1 << 20)
	const n = 1000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i+1)<<32 | 0xfff // home slot: the last one, at every size up to 2^12
		tt.record(keys[i], i%7)
	}
	if len(tt.slots) <= ttMinSlots || 4*tt.used > 3*len(tt.slots) {
		t.Fatalf("%d entries in %d slots: the array did not grow to ≤ 3/4 load", tt.used, len(tt.slots))
	}
	for i := 0; i < n; i += 2 {
		tt.forget(keys[i], i%7)
	}
	for i, k := range keys {
		if got := tt.seen(k, 6); got != (i%2 == 1) {
			t.Fatalf("key %d: seen = %v after forgetting the even keys", i, got)
		}
	}
}

// TestTranspoForcedCollisions forces the hash collisions that the table's
// documentation argues "can only prune": with every key truncated to 12
// bits, distinct states share table entries, so the search prunes states it
// has never seen. Pruning loses search paths but never invents a circuit:
// every returned circuit must still pass the verification gate and no
// 3-variable result may beat the proven optimum. The truncation must also
// visibly change the search — more candidates are pruned as duplicates.
func TestTranspoForcedCollisions(t *testing.T) {
	src := rng.New(1)
	fns := make([]perm.Perm, 40)
	for i := range fns {
		fns[i] = perm.Random(3, src)
	}
	opt := optimal.Distances(optimal.NCT)
	opts := DefaultOptions()
	opts.TotalSteps = 30000
	run := func() (hits int64, found int) {
		for _, p := range fns {
			r, err := SynthesizePerm(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			hits += r.DedupHits
			if !r.Found {
				continue
			}
			found++
			if !r.Verified {
				t.Fatalf("%v: returned circuit is not verified", p)
			}
			best, err := opt.Lookup(p)
			if err != nil {
				t.Fatal(err)
			}
			if r.Circuit.Len() < best {
				t.Fatalf("%v: %d gates, below the proven optimum %d", p, r.Circuit.Len(), best)
			}
		}
		return hits, found
	}
	fullHits, _ := run()
	defer func(m uint64) { ttKeyMask = m }(ttKeyMask)
	ttKeyMask = 1<<12 - 1
	maskedHits, found := run()
	if maskedHits <= fullHits {
		t.Errorf("12-bit keys pruned %d duplicates, full keys %d: the collisions did not show", maskedHits, fullHits)
	}
	t.Logf("dedup hits: %d with full keys, %d with 12-bit keys; %d/%d solved under collisions",
		fullHits, maskedHits, found, len(fns))
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
