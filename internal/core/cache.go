package core

// Engine-side wiring of the canonical-form answer cache (internal/cache):
// SynthesizeContext consults the cache before constructing a searcher and
// offers every verified result back afterwards; the resume entry points
// only offer (a resume must continue its checkpoint, not short-circuit
// it). All policy — conjugation, re-verification, persistence — lives in
// the cache package; this file only decides when to ask. LookupAnswer and
// InsertAnswer are the one cache-hit Result and the one store rule, shared
// with the server, which probes at admission instead and persists only
// after the client has its answer (internal/serve).

import (
	"repro/internal/cache"
	"repro/internal/perm"
	"repro/internal/pprm"
)

// cacheProbe carries one request's cache identity (tabulated permutation,
// options fingerprint, class hash) from the pre-search lookup to the
// post-verification store so the canonicalization work is not repeated.
type cacheProbe struct {
	p     perm.Perm
	fp    uint64
	class uint64
}

// cacheProbeFor returns the probe for a cache-eligible request, nil when
// the cache is off or the specification is too wide for it.
func cacheProbeFor(spec *pprm.Spec, opts *Options) *cacheProbe {
	if opts.Cache == nil || !cache.Cacheable(spec.N) {
		return nil
	}
	return &cacheProbe{p: spec.ToPerm(), fp: optionsFingerprint(opts)}
}

// LookupAnswer consults the answer cache c for the cacheable permutation p
// under the options fingerprint fp; the cache counts the hit, miss or
// derive in its own Stats. On a hit it returns a complete Result — the derived
// circuit has already passed the independent verification gate inside the
// cache (verify.StageCache), so it is reported Verified with StopSolved and
// zero search counters. On a miss the Result carries only the class hash.
// The engine and the server's admission path both answer through it.
func LookupAnswer(c *cache.Cache, p perm.Perm, fp uint64) (Result, bool) {
	hit, ok := c.Lookup(p, fp)
	if !ok {
		return Result{CanonicalClass: hit.Class}, false
	}
	return Result{
		Circuit:        hit.Circuit,
		Found:          true,
		StopReason:     StopSolved,
		Verified:       true,
		CacheHit:       true,
		CanonicalClass: hit.Class,
	}, true
}

// InsertAnswer offers res, a result for the cacheable permutation p, to the
// answer cache c when it is worth keeping — found, independently verified
// (which also rules out SkipVerify runs: the gate never ran), and carrying
// a circuit — and stamps the canonical class on it. The entry is only
// inserted into memory: the returned write (nil when nothing was stored)
// makes it durable. The server runs that write after the client has its
// answer, so no response waits for an fsync.
func InsertAnswer(c *cache.Cache, p perm.Perm, fp uint64, res *Result) *cache.Pending {
	if !res.Found || !res.Verified || res.Circuit == nil {
		return nil
	}
	// Insert fails only for a circuit that does not fit p, which a
	// verified result cannot be; nothing is stored then and w is nil.
	class, w, _ := c.Insert(p, fp, res.Circuit)
	if class != 0 {
		res.CanonicalClass = class
	}
	return w
}

// cacheLookup is LookupAnswer for a search request. On a miss the probe is
// returned for the post-synthesis store.
func cacheLookup(spec *pprm.Spec, opts *Options) (Result, *cacheProbe, bool) {
	probe := cacheProbeFor(spec, opts)
	if probe == nil {
		return Result{}, nil, false
	}
	res, ok := LookupAnswer(opts.Cache, probe.p, probe.fp)
	probe.class = res.CanonicalClass
	if !ok {
		return Result{}, probe, false
	}
	if o := opts.Observe; o != nil {
		o.Begin(int64(opts.TotalSteps), opts.TimeLimit, opts.MaxMemory)
		o.Solution(len(res.Circuit.Gates), res.Circuit.QuantumCost())
		o.SetVerified(true)
		o.Finish(StopSolved.String())
	}
	return res, probe, true
}

// cacheStore stamps the class on the result and offers it to the cache
// through InsertAnswer, then makes the entry durable before returning, so
// the engine's result is on disk when it reaches the caller. A persistence
// failure only costs durability: the in-memory entry stands and its class
// is stamped all the same.
func cacheStore(probe *cacheProbe, opts *Options, res Result) Result {
	if probe == nil {
		return res
	}
	res.CanonicalClass = probe.class
	_ = InsertAnswer(opts.Cache, probe.p, probe.fp, &res).Persist()
	return res
}
