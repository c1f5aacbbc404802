package obs

import "expvar"

// Process-wide answer-cache counters, published as expvars alongside the
// verification-gate counters. Hits and misses measure how much of the
// workload the canonical-form cache absorbs; derives is the subset of hits
// answered for a *different* member of the stored class (a non-identity
// conjugation), which is the number that tells you the classifier — not
// just request repetition — is earning its keep.
var (
	cacheHits    = expvar.NewInt("rmrls.cache_hits")
	cacheMisses  = expvar.NewInt("rmrls.cache_misses")
	cacheDerives = expvar.NewInt("rmrls.cache_derives")
)

// IncCacheHit counts one cache lookup answered with a verified circuit.
func IncCacheHit() { cacheHits.Add(1) }

// IncCacheMiss counts one cache lookup that found no usable entry.
func IncCacheMiss() { cacheMisses.Add(1) }

// IncCacheDerive counts one cache hit answered through a non-identity
// relabeling/polarity conjugation.
func IncCacheDerive() { cacheDerives.Add(1) }

// CacheHits returns the process-wide cache-hit count.
func CacheHits() int64 { return cacheHits.Value() }

// CacheMisses returns the process-wide cache-miss count.
func CacheMisses() int64 { return cacheMisses.Value() }
