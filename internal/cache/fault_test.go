package cache_test

import (
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/rng"
)

// checkAfterCrash reopens dir with a clean filesystem and asserts the
// persistent state is safe: every Lookup either misses or answers with a
// verified circuit realizing exactly the permutation that was asked for.
// A wrong circuit is the one outcome a torn write must never produce.
func checkAfterCrash(t *testing.T, dir string, specs []perm.Perm) (hits int) {
	t.Helper()
	c, err := cache.Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	for _, p := range specs {
		hit, ok := c.Lookup(p, fpA)
		if !ok {
			continue
		}
		hits++
		got := hit.Circuit.Perm()
		if !got.Equal(p) {
			t.Fatalf("lookup after crash returned a wrong circuit:\n got %v\nwant %v", got, p)
		}
	}
	return hits
}

// TestCrashDuringPutReadsAsMissOrOldEntry enumerates every crash point of
// the atomic entry-write protocol, for a fresh write and for an overwrite
// of an existing entry, with and without a torn write at the crash point.
// After each simulated crash the cache is reopened on a clean filesystem;
// the interrupted entry must read as a miss (fresh write) or as one of the
// two correct circuits (overwrite) — never as a wrong answer.
func TestCrashDuringPutReadsAsMissOrOldEntry(t *testing.T) {
	src := rng.New(7)
	circ, p := randomSpec(3, 6, src)
	// A longer circuit for the same function: pad with a self-canceling
	// NOT pair so the overwrite scenario's second Put actually replaces.
	padded := &circuit.Circuit{Wires: circ.Wires, Gates: append([]circuit.Gate(nil), circ.Gates...)}
	padded.Gates = append(padded.Gates, circuit.Gate{Target: 0}, circuit.Gate{Target: 0})

	// Learn the op count of one entry write with a never-crashing run.
	probe := chaos.New(nil)
	if c, err := cache.Open(t.TempDir(), probe); err != nil {
		t.Fatal(err)
	} else if _, _, err := c.Put(p, fpA, circ); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total == 0 {
		t.Fatal("probe run performed no filesystem operations")
	}

	for _, tear := range []int{0, 3} {
		for crashAt := 0; crashAt <= total; crashAt++ {
			// Fresh write: nothing on disk yet, Put crashes mid-protocol.
			dir := t.TempDir()
			ffs := chaos.New(nil)
			ffs.CrashAt(crashAt, tear)
			c, err := cache.Open(dir, ffs)
			if err != nil {
				t.Fatal(err)
			}
			_, _, perr := c.Put(p, fpA, circ)
			if ffs.Crashed() && perr == nil && crashAt < total-1 {
				// Only a crash on the very last op (after rename landed)
				// may still report success.
				t.Fatalf("crashAt=%d tear=%d: Put reported success through a crash", crashAt, tear)
			}
			checkAfterCrash(t, dir, []perm.Perm{p})

			// Overwrite: a good entry already persisted, then a shorter
			// circuit for the same class crashes mid-replacement. The
			// survivor must be the old entry, the new one, or a miss.
			dir = t.TempDir()
			warm, err := cache.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, stored, err := warm.Put(p, fpA, padded); err != nil || !stored {
				t.Fatalf("seeding overwrite scenario: stored=%v err=%v", stored, err)
			}
			ffs = chaos.New(nil)
			ffs.CrashAt(crashAt, tear)
			c, err = cache.Open(dir, ffs)
			if err != nil {
				t.Fatal(err)
			}
			c.Put(p, fpA, circ)
			if hits := checkAfterCrash(t, dir, []perm.Perm{p}); hits != 1 {
				// The old entry was durable before the replacement began;
				// rename is atomic, so some correct entry must survive.
				t.Fatalf("crashAt=%d tear=%d: durable entry lost in overwrite crash", crashAt, tear)
			}
		}
	}
}

// TestCrashDuringBatchPersistReadsAsMissOrOldEntry is the batch twin of
// TestCrashDuringPutReadsAsMissOrOldEntry: three entries of distinct
// classes are inserted and written by one PersistAll that crashes at every
// operation index, torn and not. After each crash every entry reads as a
// miss (fresh writes) or as a correct circuit, and an overwritten entry
// that was durable before the batch never goes missing. A batch that
// reported no error leaves every entry readable after a reopen.
func TestCrashDuringBatchPersistReadsAsMissOrOldEntry(t *testing.T) {
	src := rng.New(17)
	var specs []perm.Perm
	var circs, padded []*circuit.Circuit
	seen := map[uint64]bool{}
	for len(specs) < 3 {
		circ, p := randomSpec(3, 5, src)
		if k := classOf(t, p); !seen[k] {
			seen[k] = true
			specs, circs = append(specs, p), append(circs, circ)
			long := &circuit.Circuit{Wires: circ.Wires, Gates: append([]circuit.Gate(nil), circ.Gates...)}
			long.Append(circuit.Gate{Target: 0}, circuit.Gate{Target: 0})
			padded = append(padded, long)
		}
	}
	// persistBatch inserts every spec's circuit into a cache over dir and
	// writes the entries with one PersistAll.
	persistBatch := func(dir string, fsys *chaos.FS) []error {
		c, err := cache.Open(dir, fsys)
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]*cache.Pending, len(specs))
		for i, p := range specs {
			if _, ws[i], err = c.Insert(p, fpA, circs[i]); err != nil || ws[i] == nil {
				t.Fatalf("insert %d: pending=%v err=%v", i, ws[i], err)
			}
		}
		return c.PersistAll(ws)
	}

	probe := chaos.New(nil)
	for i, err := range persistBatch(t.TempDir(), probe) {
		if err != nil {
			t.Fatalf("clean batch, entry %d: %v", i, err)
		}
	}
	total := probe.Ops()

	for _, tear := range []int{0, 3} {
		for crashAt := 0; crashAt <= total; crashAt++ {
			// Fresh writes: nothing on disk yet.
			dir := t.TempDir()
			ffs := chaos.New(nil)
			ffs.CrashAt(crashAt, tear)
			err := errors.Join(persistBatch(dir, ffs)...)
			if hits := checkAfterCrash(t, dir, specs); err == nil && hits != len(specs) {
				t.Fatalf("crashAt=%d tear=%d: batch reported no error, but %d of %d entries survive a reopen",
					crashAt, tear, hits, len(specs))
			}

			// Overwrites: a longer correct circuit of every class is
			// durable, and the batch replaces all three.
			dir = t.TempDir()
			warm, err := cache.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range specs {
				if _, stored, err := warm.Put(p, fpA, padded[i]); err != nil || !stored {
					t.Fatalf("seeding overwrite %d: stored=%v err=%v", i, stored, err)
				}
			}
			ffs = chaos.New(nil)
			ffs.CrashAt(crashAt, tear)
			persistBatch(dir, ffs)
			if hits := checkAfterCrash(t, dir, specs); hits != len(specs) {
				t.Fatalf("crashAt=%d tear=%d: %d of %d durable entries survive an overwrite crash",
					crashAt, tear, hits, len(specs))
			}
		}
	}
}
