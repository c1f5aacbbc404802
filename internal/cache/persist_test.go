package cache_test

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// gatedWriteFS holds every CreateTemp until release, signalling each one
// on entered — an entry write stuck in a slow fsync, on demand.
type gatedWriteFS struct {
	snapshot.FS
	entered, gate chan struct{}
	once          *sync.Once
}

// newGatedWriteFS returns a gated DiskFS that the test's cleanup releases.
func newGatedWriteFS(t *testing.T) gatedWriteFS {
	f := gatedWriteFS{FS: snapshot.DiskFS, entered: make(chan struct{}, 1), gate: make(chan struct{}), once: new(sync.Once)}
	t.Cleanup(f.release)
	return f
}

func (f gatedWriteFS) release() { f.once.Do(func() { close(f.gate) }) }

func (f gatedWriteFS) CreateTemp(dir, pattern string) (snapshot.File, error) {
	f.entered <- struct{}{}
	<-f.gate
	return f.FS.CreateTemp(dir, pattern)
}

func classOf(t *testing.T, p perm.Perm) uint64 {
	t.Helper()
	rep, _, err := canon.Canonicalize(p)
	if err != nil {
		t.Fatal(err)
	}
	return canon.Hash(rep)
}

// entryFiles lists the persisted entries under dir.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.rmce"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestLookupDoesNotWaitForBlockedPut: while one Put's entry write is stuck,
// a Lookup of another class (read through from disk) and a memory hit on
// the stuck class both answer. Holding the cache lock across the write
// would park both behind the fsync.
func TestLookupDoesNotWaitForBlockedPut(t *testing.T) {
	src := rng.New(21)
	circ, p := randomSpec(3, 5, src)
	other, q := randomSpec(3, 4, src)
	for classOf(t, q) == classOf(t, p) {
		other, q = randomSpec(3, 4, src)
	}
	dir := t.TempDir()
	seed, err := cache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, stored, err := seed.Put(q, fpA, other); err != nil || !stored {
		t.Fatalf("seeding other class: stored=%v err=%v", stored, err)
	}

	fsys := newGatedWriteFS(t)
	c, err := cache.Open(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	putErr := make(chan error, 1)
	go func() {
		_, _, err := c.Put(p, fpA, circ)
		putErr <- err
	}()
	<-fsys.entered

	type result struct {
		what string
		ok   bool
	}
	answers := make(chan result, 2)
	go func() {
		_, ok := c.Lookup(q, fpA)
		answers <- result{"other class (disk read-through)", ok}
		_, ok = c.Lookup(p, fpA)
		answers <- result{"blocked class (memory)", ok}
	}()
	for range 2 {
		select {
		case r := <-answers:
			if !r.ok {
				t.Fatalf("Lookup of %s missed during a blocked write", r.what)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Lookup waited for another Put's blocked entry write")
		}
	}
	select {
	case err := <-putErr:
		t.Fatalf("Put returned (err %v) before its write was released", err)
	default:
	}

	fsys.release()
	if err := <-putErr; err != nil {
		t.Fatalf("Put after release: %v", err)
	}
	if got := entryFiles(t, dir); len(got) != 2 {
		t.Fatalf("entry files = %v, want both classes on disk", got)
	}
}

// TestSupersededPersistKeepsShorterEntry: a write whose entry a shorter
// circuit already replaced in memory must not land on disk over the
// shorter entry's file.
func TestSupersededPersistKeepsShorterEntry(t *testing.T) {
	src := rng.New(22)
	short, p := randomSpec(3, 4, src)
	long := &circuit.Circuit{Wires: short.Wires, Gates: append([]circuit.Gate(nil), short.Gates...)}
	long.Gates = append(long.Gates, circuit.Gate{Target: 1}, circuit.Gate{Target: 1})

	dir := t.TempDir()
	c, err := cache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, wLong, err := c.Insert(p, fpA, long)
	if err != nil || wLong == nil {
		t.Fatalf("insert long: pending=%v err=%v", wLong, err)
	}
	_, wShort, err := c.Insert(p, fpA, short)
	if err != nil || wShort == nil {
		t.Fatalf("insert short: pending=%v err=%v", wShort, err)
	}
	if err := wShort.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := wLong.Persist(); err != nil {
		t.Fatal(err)
	}

	reopened, err := cache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	hit, ok := reopened.Lookup(p, fpA)
	if !ok {
		t.Fatal("persisted entry missing after reopen")
	}
	if got, want := len(hit.Circuit.Gates), len(short.Gates); got != want {
		t.Fatalf("disk holds a %d-gate circuit, want the shorter %d-gate one", got, want)
	}
}

// TestPersistWithoutDiskIsANoOp: a memory-only cache and a nil Pending
// both persist nothing, without error.
func TestPersistWithoutDiskIsANoOp(t *testing.T) {
	circ, p := randomSpec(3, 3, rng.New(23))
	_, w, err := cache.New().Insert(p, fpA, circ)
	if err != nil || w == nil {
		t.Fatalf("insert: pending=%v err=%v", w, err)
	}
	if err := w.Persist(); err != nil {
		t.Fatalf("memory-only Persist: %v", err)
	}
	var none *cache.Pending
	if err := none.Persist(); err != nil {
		t.Fatalf("nil Persist: %v", err)
	}
}

// TestConcurrentPutsKeepShortestInMemoryAndCorrectOnDisk races stores of
// longer and shorter circuits for a few functions against lookups. Memory
// ends on each function's shortest circuit; disk, reopened, answers every
// function with a correct circuit — possibly a superseded longer one.
func TestConcurrentPutsKeepShortestInMemoryAndCorrectOnDisk(t *testing.T) {
	src := rng.New(24)
	const funcs, pads = 3, 4
	type variant struct {
		p    perm.Perm
		circ *circuit.Circuit
	}
	var variants []variant
	shortest := make([]int, funcs)
	specs := make([]perm.Perm, funcs)
	for f := range funcs {
		circ, p := randomSpec(3, 3+f, src)
		specs[f], shortest[f] = p, len(circ.Gates)
		for pad := range pads {
			c := &circuit.Circuit{Wires: circ.Wires, Gates: append([]circuit.Gate(nil), circ.Gates...)}
			for range pad {
				c.Gates = append(c.Gates, circuit.Gate{Target: 2}, circuit.Gate{Target: 2})
			}
			variants = append(variants, variant{p, c})
		}
	}

	dir := t.TempDir()
	c, err := cache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range variants {
				v := variants[(i*(g+1)+g)%len(variants)]
				if _, _, err := c.Put(v.p, fpA, v.circ); err != nil {
					t.Error(err)
					return
				}
				if hit, ok := c.Lookup(v.p, fpA); !ok || !hit.Circuit.Perm().Equal(v.p) {
					t.Errorf("lookup after put: ok=%v", ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	for f, p := range specs {
		if hit, ok := c.Lookup(p, fpA); !ok || len(hit.Circuit.Gates) != shortest[f] {
			t.Fatalf("function %d: memory holds %v, want its %d-gate circuit", f, hit.Circuit, shortest[f])
		}
	}
	if hits := checkAfterCrash(t, dir, specs); hits != funcs {
		t.Fatalf("reopened cache answered %d of %d functions", hits, funcs)
	}
}
