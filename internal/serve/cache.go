package serve

// Answer-cache integration. The server probes the cache itself, through
// core.LookupAnswer and core.InsertAnswer, so the lookup happens at
// admission — before a queue slot or worker is spent. The engine is never
// handed core.Options.Cache, so admission makes the only lookups on the
// cache and its own hit/miss counters are the server's.

import (
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// Job views label who produced the result: a cache-hit result is
// sourceCache, every other sourceWorker.
const (
	sourceWorker = "worker"
	sourceCache  = "cache"
)

// cacheable reports whether the answer cache is on and can represent c.
func (s *Server) cacheable(c *compiled) bool {
	return s.cache != nil && c.perm != nil && cache.Cacheable(c.perm.Vars())
}

// fromCache answers a compiled request from the answer cache. On a hit it
// returns a finished job (a verified cache-hit result) ready for
// registration; on a miss — or when the cache is off or cannot represent
// the request — it returns nil and the caller enqueues as usual. The hit
// itself is core.LookupAnswer, the same one the engine uses.
func (s *Server) fromCache(c *compiled, req Request) *Job {
	if !s.cacheable(c) {
		return nil
	}
	res, ok := core.LookupAnswer(s.cache, c.perm, core.OptionsFingerprint(&c.opts))
	if !ok {
		return nil
	}
	now := time.Now()
	j := newJob(c, req, now)
	j.started = now
	j.finish(StatusDone, res, "", now)
	return j
}

// cacheStore inserts a finished worker result into the answer cache
// through core.InsertAnswer, which keeps only found, verified results and
// stamps the canonical class, and returns the entry's durable write. The
// worker runs that write only after settle, so the client's answer never
// waits for an fsync, while a conjugate arriving right after the response
// already hits memory; Drain waits for the write like any other worker
// step. A degraded re-run is never offered: it followed a verification
// failure, which is exactly the situation a cache must not memorize.
func (s *Server) cacheStore(j *Job, res *core.Result) *cache.Pending {
	if !s.cacheable(j.c) || j.isDegraded() {
		return nil
	}
	return core.InsertAnswer(s.cache, j.c.perm, core.OptionsFingerprint(&j.c.opts), res)
}
