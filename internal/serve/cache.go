package serve

// Answer-cache integration. The server probes the cache itself, through
// core.LookupAnswer and core.StoreAnswer, so the lookup happens at
// admission — before a queue slot or worker is spent — and so the server's
// own hit/miss counters are authoritative: the engine is never handed
// core.Options.Cache, which would double-count every probe.

import (
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// jobSource labels who produced a job's result.
const (
	sourceWorker = "worker"
	sourceCache  = "cache"
)

// fromCache answers a compiled request from the answer cache. On a hit it
// returns a finished job (source "cache", verified result) ready for
// registration; on a miss — or when the cache is off or cannot represent
// the request — it returns nil and the caller enqueues as usual. The hit
// itself is core.LookupAnswer, the same one the engine uses.
func (s *Server) fromCache(c *compiled, req Request) *Job {
	if s.cache == nil || c.perm == nil || !cache.Cacheable(c.perm.Vars()) {
		return nil
	}
	res, ok := core.LookupAnswer(s.cache, c.perm, core.OptionsFingerprint(&c.opts))
	if !ok {
		s.stats.cacheMisses.Add(1)
		return nil
	}
	s.stats.cacheHits.Add(1)
	now := time.Now()
	j := newJob(c, req, now)
	j.source = sourceCache
	j.started = now
	verified := true
	j.finish(StatusDone, res, &verified, "", now)
	return j
}

// cacheStore offers a finished worker result to the answer cache through
// core.StoreAnswer, which stores only found, verified results and stamps
// the canonical class. A degraded re-run is never offered: it followed a
// verification failure, which is exactly the situation a cache must not
// memorize.
func (s *Server) cacheStore(j *Job, res *core.Result) {
	if s.cache == nil || j.fperm == nil || !cache.Cacheable(j.fperm.Vars()) || j.isDegraded() {
		return
	}
	core.StoreAnswer(s.cache, j.fperm, core.OptionsFingerprint(&j.opts), res)
}
