// Package cache is the persistent answer cache over the canonical-form
// classifier (internal/canon). A Put records the cascade synthesized for
// one member of an equivalence class together with the transform from
// that member to the class representative; a Lookup for any member of the
// same class derives its circuit by conjugating the stored cascade with
// the composed transform — a hash lookup plus wire renaming and at most
// 2n NOT gates instead of a full search.
//
// Correctness does not rest on the classifier or on disk integrity: every
// derived circuit is re-simulated against the request through the
// independent verify oracle (verify.StageCache) before it is returned,
// entries store the full representative (compared on lookup, so a hash
// collision is a miss, not a wrong answer), and persistent entries are
// CRC-checked, written atomically through the internal/snapshot FS seam,
// and dropped as misses when torn or corrupt.
//
// Entries are keyed by (class hash, options fingerprint): results found
// under one option set (gate library, MaxGates, cost weights, …) are
// never served to a request with a different one. Budgets are excluded
// from the fingerprint, matching the checkpoint-compatibility rule.
package cache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/health"
	"repro/internal/perm"
	"repro/internal/snapshot"
	"repro/internal/verify"
)

// MaxVars bounds the specification width the cache handles. Wider
// requests bypass the cache entirely: an entry tabulates the full
// representative permutation (2^n rows), and every hit is re-verified by
// full simulation, both of which stop being cheap well before the
// engine's own limits do.
const MaxVars = 16

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups answered with a verified circuit.
	Hits int64
	// Misses counts lookups that found no usable entry (including
	// corrupt or verification-rejected ones).
	Misses int64
	// Derives counts hits answered through a non-identity conjugation —
	// the request was a different member of the stored class.
	Derives int64
	// Stores counts accepted Puts.
	Stores int64
	// CorruptDropped counts persistent entries discarded for bad magic,
	// CRC mismatch, truncation, or undecodable payloads.
	CorruptDropped int64
	// VerifyRejected counts entries dropped because the derived circuit
	// failed the verification gate.
	VerifyRejected int64
	// DiskShed counts disk operations the filesystem refused because the
	// cache-store fault domain is open (health.IsOpen): lookups served
	// memory-only, stores kept in memory without persistence.
	DiskShed int64
}

type key struct {
	class, fp uint64
}

type entry struct {
	rep  perm.Perm       // class representative (collision guard)
	to   canon.Transform // member→representative: rep = to∘member∘to⁻¹
	circ *circuit.Circuit
}

// Cache is safe for concurrent use.
type Cache struct {
	dir string // "" = memory-only
	fs  snapshot.FS

	mu  sync.Mutex
	mem map[key]*entry

	hits, misses, derives, stores atomic.Int64
	corrupt, rejected             atomic.Int64
	shed                          atomic.Int64
}

// New returns a memory-only cache (no persistence).
func New() *Cache {
	return &Cache{mem: make(map[key]*entry)}
}

// Open returns a cache persisted under dir, creating the directory if
// needed. Reads and writes go through fsys (nil means the real
// filesystem), writes using the snapshot package's atomic protocol. An
// empty dir means memory-only. Fault-domain supervision is fsys's job:
// wrap it in health.GuardFS, and while the domain is open the cache sheds
// the disk — lookups fall back to memory, stores keep only the in-memory
// entry — with no error surfacing to the caller.
func Open(dir string, fsys snapshot.FS) (*Cache, error) {
	c := New()
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	if fsys == nil {
		fsys = snapshot.DiskFS
	}
	c.dir = dir
	c.fs = fsys
	return c, nil
}

// Dir returns the persistence directory ("" for memory-only caches).
func (c *Cache) Dir() string { return c.dir }

// Len returns the number of entries resident in memory (persistent
// entries not yet looked up are not counted).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Derives:        c.derives.Load(),
		Stores:         c.stores.Load(),
		CorruptDropped: c.corrupt.Load(),
		VerifyRejected: c.rejected.Load(),
		DiskShed:       c.shed.Load(),
	}
}

// Cacheable reports whether the cache handles n-variable specifications.
func Cacheable(n int) bool { return n >= 1 && n <= MaxVars }

// Hit is a successful lookup.
type Hit struct {
	// Circuit realizes the requested permutation; it is freshly built
	// and verified, never aliased to cache-internal state.
	Circuit *circuit.Circuit
	// Class is the canonical class hash (also reported on misses via
	// Lookup's class return).
	Class uint64
	// Derived reports that a non-identity conjugation produced the
	// circuit — the stored cascade was synthesized for a different
	// member of the class.
	Derived bool
}

// Lookup finds a circuit for p under the options fingerprint fp. The
// class hash is returned even on a miss so callers can report it without
// re-canonicalizing. ok is false when the cache has no verified answer;
// for specifications the cache does not handle (width, invalid table) the
// class is 0 and no counter moves.
func (c *Cache) Lookup(p perm.Perm, fp uint64) (Hit, bool) {
	rep, t, err := canonicalizeFor(p)
	if err != nil {
		return Hit{}, false
	}
	k := key{class: canon.Hash(rep), fp: fp}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.loadLocked(k)
	if e == nil {
		c.misses.Add(1)
		return Hit{Class: k.class}, false
	}
	if !e.rep.Equal(rep) {
		// The entry at this key answers a different class — a 64-bit hash
		// collision or a misfiled/tampered file. Drop it so the slot is
		// re-earned honestly.
		c.dropLocked(k)
		c.rejected.Add(1)
		c.misses.Add(1)
		return Hit{Class: k.class}, false
	}
	// rep = t∘p∘t⁻¹ = e.to∘m∘e.to⁻¹ for the stored member m, so
	// p = v∘m∘v⁻¹ with v = t⁻¹∘e.to.
	v := t.Inverse().Compose(e.to)
	derived, err := v.ConjugateCircuit(e.circ)
	if err == nil {
		err = verify.Circuit(verify.StageCache, derived, p)
	}
	if err != nil {
		// The entry cannot answer this class correctly: poisoned on
		// disk, a classifier bug, or a hash-collision slip. Drop it so
		// it is re-synthesized, and answer miss — never the bad circuit.
		c.dropLocked(k)
		c.rejected.Add(1)
		c.misses.Add(1)
		return Hit{Class: k.class}, false
	}
	c.hits.Add(1)
	if !v.IsIdentity() {
		c.derives.Add(1)
	}
	return Hit{Circuit: derived, Class: k.class, Derived: !v.IsIdentity()}, true
}

// Put records circ as a verified realization of p under the options
// fingerprint fp. It returns the class hash and whether the entry was
// stored (an existing entry with no more gates is kept instead; wider or
// invalid specifications are ignored). The caller is responsible for only
// offering verified circuits — core's verification gate runs before every
// Put, and SkipVerify results are never offered.
func (c *Cache) Put(p perm.Perm, fp uint64, circ *circuit.Circuit) (uint64, bool, error) {
	rep, t, err := canonicalizeFor(p)
	if err != nil {
		return 0, false, nil
	}
	if circ == nil || circ.Wires != p.Vars() {
		return 0, false, fmt.Errorf("cache: circuit does not match a %d-variable specification", p.Vars())
	}
	if err := circ.Validate(); err != nil {
		return 0, false, fmt.Errorf("cache: %w", err)
	}
	k := key{class: canon.Hash(rep), fp: fp}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.loadLocked(k); e != nil && e.rep.Equal(rep) && len(e.circ.Gates) <= len(circ.Gates) {
		return k.class, false, nil
	}
	stored := &circuit.Circuit{Wires: circ.Wires, Gates: append([]circuit.Gate(nil), circ.Gates...)}
	e := &entry{rep: rep, to: t, circ: stored}
	c.mem[k] = e
	c.stores.Add(1)
	if c.dir == "" {
		return k.class, true, nil
	}
	if err := snapshot.WriteRaw(c.fs, c.path(k), encodeEntry(e)); err != nil {
		if health.IsOpen(err) {
			// Cache-store domain open: the entry stands in memory and
			// the store is transparently non-durable — no error.
			c.shed.Add(1)
			return k.class, true, nil
		}
		// The in-memory entry stands; only durability failed.
		return k.class, true, fmt.Errorf("cache: persist: %w", err)
	}
	return k.class, true, nil
}

// canonicalizeFor canonicalizes p when the cache handles it.
func canonicalizeFor(p perm.Perm) (perm.Perm, canon.Transform, error) {
	if !Cacheable(p.Vars()) {
		return nil, canon.Transform{}, errors.New("cache: width not cacheable")
	}
	return canon.Canonicalize(p)
}

func (c *Cache) path(k key) string {
	return filepath.Join(c.dir, fmt.Sprintf("%016x-%016x%s", k.class, k.fp, entryExt))
}

// loadLocked returns the entry for k, reading through to disk on a memory
// miss. Corrupt files are removed and counted. Missing, unreadable and
// corrupt files, and reads an open fault domain refuses, all read as no
// entry.
func (c *Cache) loadLocked(k key) *entry {
	if e, ok := c.mem[k]; ok {
		return e
	}
	if c.dir == "" {
		return nil
	}
	data, err := c.fs.ReadFile(c.path(k))
	if health.IsOpen(err) {
		// Cache-store domain open: a memory miss is a miss; the job
		// synthesizes from scratch instead of waiting on a sick disk.
		c.shed.Add(1)
	}
	if err != nil {
		// A missing file is "no entry"; any other read error is an
		// availability problem for the fault domain, not corruption.
		return nil
	}
	e, err := decodeEntry(data)
	if err != nil {
		// Corrupt bytes, but the device delivered them fine — an
		// integrity problem, not an availability one: drop the file,
		// leave the fault domain alone.
		c.corrupt.Add(1)
		c.removeFile(k)
		return nil
	}
	c.mem[k] = e
	return e
}

func (c *Cache) dropLocked(k key) {
	delete(c.mem, k)
	if c.dir != "" {
		c.removeFile(k)
	}
}

func (c *Cache) removeFile(k key) {
	_ = c.fs.Remove(c.path(k))
}
