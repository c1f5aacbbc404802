package cache_test

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
)

// BenchmarkCachePut times one accepted store of a 3-variable answer: the
// canonicalization, the in-memory insert and, on disk, the atomic entry
// write with its fsyncs. Every iteration stores under a fresh fingerprint,
// so none is turned away by the keep-the-shorter rule; the memory-only
// cache is replaced every resetEvery stores to keep its map bounded.
func BenchmarkCachePut(b *testing.B) {
	const resetEvery = 4096
	circ, p := randomSpec(3, 6, rng.New(31))
	for _, disk := range []bool{false, true} {
		name := "memory"
		if disk {
			name = "disk"
		}
		b.Run(name, func(b *testing.B) {
			open := func() *cache.Cache {
				if !disk {
					return cache.New()
				}
				c, err := cache.Open(b.TempDir(), nil)
				if err != nil {
					b.Fatal(err)
				}
				return c
			}
			c := open()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !disk && i%resetEvery == resetEvery-1 {
					c = cache.New()
				}
				if _, stored, err := c.Put(p, uint64(i), circ); err != nil || !stored {
					b.Fatalf("put %d: stored=%v err=%v", i, stored, err)
				}
			}
		})
	}
}

// BenchmarkCachePersistBatch times one entry's share of a batched disk
// write: entries are inserted under fresh fingerprints, and every batch of
// them is written by one PersistAll, which syncs the directory once. At 1
// entry per batch this is BenchmarkCachePut's disk case; at 8 the
// directory sync is shared.
func BenchmarkCachePersistBatch(b *testing.B) {
	circ, p := randomSpec(3, 6, rng.New(31))
	for _, size := range []int{1, 8} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			c, err := cache.Open(b.TempDir(), nil)
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]*cache.Pending, 0, size)
			flush := func() {
				for i, err := range c.PersistAll(batch) {
					if err != nil {
						b.Fatalf("entry %d: %v", i, err)
					}
				}
				batch = batch[:0]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, w, err := c.Insert(p, uint64(i), circ)
				if err != nil || w == nil {
					b.Fatalf("insert %d: pending=%v err=%v", i, w, err)
				}
				if batch = append(batch, w); len(batch) == size {
					flush()
				}
			}
			flush()
		})
	}
}

// BenchmarkCacheLookup times a derived hit from memory: canonicalize the
// request, find the entry, conjugate its cascade and re-verify the result.
func BenchmarkCacheLookup(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			src := rng.New(uint64(32 + n))
			circ, p := randomSpec(n, 2*n, src)
			c := cache.New()
			if _, _, err := c.Put(p, fpA, circ); err != nil {
				b.Fatal(err)
			}
			q := randomTransform(n, src).Conjugate(p)
			for q.Equal(p) {
				q = randomTransform(n, src).Conjugate(p)
			}
			if hit, ok := c.Lookup(q, fpA); !ok || !hit.Derived {
				b.Fatalf("conjugate lookup: ok=%v derived=%v, want a derived hit", ok, hit.Derived)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Lookup(q, fpA); !ok {
					b.Fatal("derived lookup missed")
				}
			}
		})
	}
}
