package serve

// Answer-cache integration. The server probes the cache itself, through
// core.LookupAnswer and core.InsertAnswer, so the lookup happens at
// admission — before a queue slot or worker is spent. The engine is never
// handed core.Options.Cache, so admission makes the only lookups on the
// cache and its own hit/miss counters are the server's.

import (
	"sync"
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
// worker hands that write to the cache writer, so the client's answer
// never waits for an fsync, while a conjugate arriving right after the
// response already hits memory. A degraded re-run is never offered: it
// followed a verification failure, which is exactly the situation a cache
// must not memorize.
func (s *Server) cacheStore(j *Job, res *core.Result) *cache.Pending {
	if !s.cacheable(j.c) || j.isDegraded() {
		return nil
	}
	return core.InsertAnswer(s.cache, j.c.perm, core.OptionsFingerprint(&j.c.opts), res)
}

// cacheLinger is how long the cache writer collects handed-off entries
// before it writes them as one batch. On a busy pool it gathers several
// entries under one directory sync; it bounds how much longer than the
// write itself a crash can lose an answered entry.
const cacheLinger = 10 * time.Millisecond

// cacheWriter is the hand-off between the workers and the one goroutine
// that writes answer-cache entries to disk. A writer runs only while
// entries are pending: the first hand-off starts it, and it exits once a
// write leaves nothing pending.
type cacheWriter struct {
	mu      sync.Mutex
	pending []*cache.Pending
	done    chan struct{} // non-nil while a writer runs; closed as it exits
}

// persistLater hands w's durable write to the cache writer, starting one
// if none runs. Only a worker calls it, while it still holds its own s.wg
// count, so the writer joins s.wg before Drain's wait can see zero, and
// Drain, under its deadline, waits for the writes as for the workers.
func (s *Server) persistLater(w *cache.Pending) {
	if w == nil || s.cache.Dir() == "" {
		return
	}
	cw := &s.cacheWrites
	cw.mu.Lock()
	defer cw.mu.Unlock()
	cw.pending = append(cw.pending, w)
	if cw.done == nil {
		cw.done = make(chan struct{})
		s.wg.Add(1)
		go s.writeCache(cw.done)
	}
}

// writeCache is the cache writer: it lingers, writes everything handed
// over meanwhile through one cache.PersistAll — one directory sync for the
// batch — and repeats until a write leaves nothing pending. A failed write
// feeds the cache breaker through its guarded FS; durability is all it
// costs, so the errors are dropped.
func (s *Server) writeCache(done chan struct{}) {
	defer s.wg.Done()
	cw := &s.cacheWrites
	for {
		time.Sleep(cacheLinger)
		cw.mu.Lock()
		batch := cw.pending
		cw.pending = nil
		cw.mu.Unlock()
		s.cache.PersistAll(batch)

		cw.mu.Lock()
		if len(cw.pending) == 0 {
			cw.done = nil
			close(done)
			cw.mu.Unlock()
			return
		}
		cw.mu.Unlock()
	}
}
