package cache_test

import (
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
