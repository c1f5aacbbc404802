package cache_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/health"
	"repro/internal/perm"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// redirectFS rewrites a path prefix before hitting the real disk — enough
// to prove reads go through the seam rather than straight to os.ReadFile.
type redirectFS struct{ from, to string }

func (r redirectFS) rewrite(p string) string {
	if strings.HasPrefix(p, r.from) {
		return r.to + strings.TrimPrefix(p, r.from)
	}
	return p
}

func (r redirectFS) CreateTemp(dir, pattern string) (snapshot.File, error) {
	return snapshot.DiskFS.CreateTemp(r.rewrite(dir), pattern)
}
func (r redirectFS) Rename(o, n string) error {
	return snapshot.DiskFS.Rename(r.rewrite(o), r.rewrite(n))
}
func (r redirectFS) Remove(n string) error  { return snapshot.DiskFS.Remove(r.rewrite(n)) }
func (r redirectFS) SyncDir(d string) error { return snapshot.DiskFS.SyncDir(r.rewrite(d)) }
func (r redirectFS) ReadFile(n string) ([]byte, error) {
	return snapshot.DiskFS.ReadFile(r.rewrite(n))
}

// failReads is a filesystem whose device answers every read with EIO.
type failReads struct{ snapshot.FS }

func (failReads) ReadFile(string) ([]byte, error) { return nil, syscall.EIO }

// testBreaker is a real cache-domain breaker on a hand-cranked clock:
// trip it with Trip, heal it with heal (the backoff elapses, so the next
// operation is the half-open probe, and a successful probe re-closes it).
type testBreaker struct {
	*health.Breaker
	now time.Time
}

func newTestBreaker() *testBreaker {
	tb := &testBreaker{now: time.Unix(1, 0)}
	tb.Breaker = health.NewBreaker("cache", false, health.Config{NoJitter: true, Now: func() time.Time { return tb.now }})
	return tb
}

func (tb *testBreaker) heal() { tb.now = tb.now.Add(time.Minute) }

// recorded counts the I/O outcomes the breaker has seen.
func (tb *testBreaker) recorded() int64 {
	v := tb.View()
	return v.Successes + v.Failures
}

func TestGuardOpenShedsDiskButServesMemory(t *testing.T) {
	dir := t.TempDir()
	b := newTestBreaker()
	c, err := cache.Open(dir, health.GuardFS(nil, b.Breaker))
	if err != nil {
		t.Fatal(err)
	}
	b.Trip(errors.New("injected outage"))
	before := b.recorded()

	src := rng.New(7)
	circ, p := randomSpec(3, 4, src)
	// Store with the domain open: the entry must land in memory, no file
	// appears, and no error surfaces.
	if _, stored, err := c.Put(p, fpA, circ); err != nil || !stored {
		t.Fatalf("Put under open domain = stored=%v err=%v, want stored, no error", stored, err)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("open domain persisted %d files", len(files))
	}
	// The memory entry still answers.
	if _, ok := c.Lookup(p, fpA); !ok {
		t.Fatal("memory entry not served while disk shed")
	}
	if got := b.recorded() - before; got != 0 {
		t.Fatalf("shed operations recorded %d outcomes, want 0 (no I/O happened)", got)
	}
	if s := c.Stats(); s.DiskShed == 0 {
		t.Errorf("stats = %+v, want DiskShed > 0", s)
	}

	// Disk healed: the next store is the half-open probe; it persists
	// and re-closes the domain, and read-through resumes.
	b.heal()
	circ2, p2 := randomSpec(3, 5, src)
	if _, _, err := c.Put(p2, fpB, circ2); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
	var rmce int
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".rmce") {
			rmce++
		}
	}
	if rmce != 1 {
		t.Fatalf("after heal: %d entry files, want 1", rmce)
	}
	if b.recorded() == before {
		t.Fatal("healed store recorded no outcome")
	}
	if st := b.State(); st != health.Closed {
		t.Errorf("after a successful probe the domain is %v, want closed", st)
	}
}

func TestGuardOpenLookupSkipsDisk(t *testing.T) {
	dir := t.TempDir()
	writer, err := cache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(8)
	circ, p := randomSpec(3, 4, src)
	if _, _, err := writer.Put(p, fpA, circ); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same dir, domain open: the on-disk entry is
	// invisible (transparent miss), not an error.
	b := newTestBreaker()
	c, err := cache.Open(dir, health.GuardFS(nil, b.Breaker))
	if err != nil {
		t.Fatal(err)
	}
	b.Trip(errors.New("injected outage"))
	before := b.recorded()
	if _, ok := c.Lookup(p, fpA); ok {
		t.Fatal("open domain served a disk entry")
	}
	if s := c.Stats(); s.DiskShed != 1 || s.CorruptDropped != 0 {
		t.Errorf("stats = %+v, want DiskShed 1 and CorruptDropped 0", s)
	}
	// Heal: the same lookup now reads through and hits.
	b.heal()
	if _, ok := c.Lookup(p, fpA); !ok {
		t.Fatal("healed lookup missed the persisted entry")
	}
	if b.recorded() == before {
		t.Fatal("healed read-through recorded no outcome")
	}
}

// TestGuardReadErrorIsNotCorruption: a read the device fails is a miss
// and a fault-domain failure, not a corrupt entry — CorruptDropped counts
// only bytes that arrived and did not decode.
func TestGuardReadErrorIsNotCorruption(t *testing.T) {
	dir := t.TempDir()
	writer, err := cache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(10)
	circ, p := randomSpec(3, 4, src)
	if _, _, err := writer.Put(p, fpA, circ); err != nil {
		t.Fatal(err)
	}

	b := newTestBreaker()
	c, err := cache.Open(dir, health.GuardFS(failReads{snapshot.DiskFS}, b.Breaker))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(p, fpA); ok {
		t.Fatal("a failed read served a hit")
	}
	if s := c.Stats(); s.CorruptDropped != 0 || s.Misses != 1 {
		t.Errorf("stats = %+v, want one miss and CorruptDropped 0", s)
	}
	if v := b.View(); v.Failures != 1 {
		t.Errorf("breaker saw %d failures, want the one failed read", v.Failures)
	}
	if files, _ := os.ReadDir(dir); len(files) != 1 {
		t.Errorf("a failed read removed the entry: %d files left, want 1", len(files))
	}
}

func TestGuardedReadThroughUsesFSSeam(t *testing.T) {
	// loadLocked must read via the snapshot.FS seam, not os.ReadFile:
	// prove it by pointing the cache at a missing directory through an FS
	// stub that serves the bytes anyway, behind the fault-domain guard.
	dir := t.TempDir()
	writer, err := cache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	circ, p := randomSpec(3, 4, src)
	if _, _, err := writer.Put(p, fpA, circ); err != nil {
		t.Fatal(err)
	}
	if files, _ := os.ReadDir(dir); len(files) != 1 {
		t.Fatalf("setup: %d files", len(files))
	}

	redirect := filepath.Join(t.TempDir(), "elsewhere")
	b := newTestBreaker()
	c, err := cache.Open(redirect, health.GuardFS(redirectFS{from: redirect, to: dir}, b.Breaker))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(p, fpA); !ok {
		t.Fatal("lookup did not read through the FS seam")
	}
	if v := b.View(); v.Successes != 1 {
		t.Errorf("breaker saw %d successes, want the one guarded read", v.Successes)
	}
}

// TestGuardOpenShedsBatchPerEntry: a batch written while the cache domain
// is open reports no error, sheds each entry once, reaches no disk, and
// every entry still answers from memory.
func TestGuardOpenShedsBatchPerEntry(t *testing.T) {
	dir := t.TempDir()
	b := newTestBreaker()
	c, err := cache.Open(dir, health.GuardFS(nil, b.Breaker))
	if err != nil {
		t.Fatal(err)
	}
	b.Trip(errors.New("injected outage"))
	before := b.recorded()

	src := rng.New(11)
	var ws []*cache.Pending
	var specs []perm.Perm
	for fp := uint64(1); fp <= 3; fp++ {
		circ, p := randomSpec(3, 4, src)
		_, w, err := c.Insert(p, fp, circ)
		if err != nil || w == nil {
			t.Fatalf("insert %d: pending=%v err=%v", fp, w, err)
		}
		ws, specs = append(ws, w), append(specs, p)
	}
	// Insert's disk read-through sheds too; count only the batch's.
	shedBefore := c.Stats().DiskShed
	for i, err := range c.PersistAll(ws) {
		if err != nil {
			t.Fatalf("entry %d under an open domain: %v, want shed without error", i, err)
		}
	}
	if got := c.Stats().DiskShed - shedBefore; got != int64(len(ws)) {
		t.Errorf("the batch added %d to DiskShed, want one per entry (%d)", got, len(ws))
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("open domain persisted %d files", len(files))
	}
	if got := b.recorded() - before; got != 0 {
		t.Fatalf("shed batch recorded %d outcomes, want 0 (no I/O happened)", got)
	}
	for i, p := range specs {
		if _, ok := c.Lookup(p, uint64(i+1)); !ok {
			t.Errorf("entry %d not served from memory while the disk is shed", i)
		}
	}
}
