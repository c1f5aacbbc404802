package serve

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/snapshot"
)

// permRequest is a small 3-variable workload the cache handles exactly.
func permRequest(spec string) Request {
	return Request{
		Spec:   SpecInput{Perm: spec},
		Budget: Budget{Steps: 2_000_000, TimeMillis: 55000},
	}
}

func drainAll(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)
}

// TestCacheHitSurvivesRestart is the satellite-bugfix regression: a request
// answered cold by a worker, the server restarted over the same state and
// cache directories, and the same request re-submitted must be answered
// from the persistent answer cache — registered as a real job under its
// idempotency key with source "cache", a verified result, and exactly the
// gates the cold run produced.
func TestCacheHitSurvivesRestart(t *testing.T) {
	stateDir, cacheDir := t.TempDir(), t.TempDir()
	cfg := drainCfg(stateDir)
	cfg.CacheDir = cacheDir
	const spec = "{1, 0, 7, 2, 3, 4, 5, 6}"

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	cold := admitDirect(t, a, permRequest(spec))
	waitDone(t, cold)
	if cold.Status() != StatusDone {
		t.Fatalf("cold status = %s (error %q)", cold.Status(), cold.view(false).Error)
	}
	cv := cold.view(false)
	if cv.Source != sourceWorker {
		t.Fatalf("cold source = %q, want %q", cv.Source, sourceWorker)
	}
	if cv.Result == nil || !cv.Result.Found || cv.Result.CacheHit {
		t.Fatalf("cold result = %+v, want a found non-cache result", cv.Result)
	}
	if cv.Result.CanonicalClass == "" {
		t.Fatal("cold result missing canonical class (cache store did not run)")
	}
	if st := a.Stats(); st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("cold stats = %+v, want exactly one cache miss", st)
	}

	// An identical submission while the job is still registered must
	// deduplicate — the idempotency contract outranks the cache.
	if _, deduped, err := func() (*Job, bool, error) {
		req := permRequest(spec)
		c, rerr := compileRequest(&req, a.cfg.Ceiling)
		if rerr != nil {
			t.Fatalf("compile: %v", rerr)
		}
		return a.admit(c, req)
	}(); err != nil || !deduped {
		t.Fatalf("same-session resubmit: deduped=%v err=%v, want dedup", deduped, err)
	}
	drainAll(t, a)

	// Restart over the same directories: the job registry is empty (the
	// cold job finished, so no ledger entry), but the cache is warm.
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer drainAll(t, b)
	warm := admitDirect(t, b, permRequest(spec))
	if warm.Status() != StatusDone {
		t.Fatalf("warm status = %s, want done at admission", warm.Status())
	}
	wv := warm.view(false)
	if wv.Source != sourceCache {
		t.Fatalf("warm source = %q, want %q", wv.Source, sourceCache)
	}
	if wv.Result == nil || !wv.Result.CacheHit {
		t.Fatalf("warm result = %+v, want a cache hit", wv.Result)
	}
	if wv.Result.Verified == nil || !*wv.Result.Verified {
		t.Fatal("warm result not verified")
	}
	if wv.Result.Circuit != cv.Result.Circuit || wv.Result.Gates != cv.Result.Gates {
		t.Fatalf("warm circuit differs from cold:\nwarm: %s\ncold: %s", wv.Result.Circuit, cv.Result.Circuit)
	}
	if wv.Result.CanonicalClass != cv.Result.CanonicalClass {
		t.Fatalf("class changed across restart: warm %s cold %s", wv.Result.CanonicalClass, cv.Result.CanonicalClass)
	}
	if wv.ID != cv.ID {
		t.Fatalf("warm job ID %s != cold %s (idempotency key drifted)", wv.ID, cv.ID)
	}
	// The hit is a registered job: retrievable by ID like any other.
	if got, ok := b.job(warm.ID()); !ok || got != warm {
		t.Fatal("cache-served job not retrievable from the registry")
	}
	if st := b.Stats(); st.CacheHits != 1 || st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("warm stats = %+v, want one cache-hit submission", st)
	}
}

// TestCacheServesConjugateMember: a different member of the same canonical
// class — the cold function with wires relabeled — must be answered from
// the cache by conjugation, verified, without a worker run.
func TestCacheServesConjugateMember(t *testing.T) {
	cfg := drainCfg(t.TempDir())
	cfg.CacheDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer drainAll(t, s)

	cold := admitDirect(t, s, permRequest("{1, 0, 7, 2, 3, 4, 5, 6}"))
	waitDone(t, cold)
	if cold.Status() != StatusDone || !cold.view(false).Result.Found {
		t.Fatalf("cold run failed: %+v", cold.view(false))
	}

	// Swap wires 0<->2 of the cold spec: q[x] = T(p[T(x)]) for the
	// self-inverse bit-swap T = {0,4,2,6,1,5,3,7}.
	q := permRequest("{4, 6, 7, 5, 0, 1, 2, 3}")
	warm := admitDirect(t, s, q)
	if warm.Status() != StatusDone {
		t.Fatalf("conjugate member status = %s, want done at admission", warm.Status())
	}
	wv := warm.view(false)
	if wv.Source != sourceCache || wv.Result == nil || !wv.Result.CacheHit {
		t.Fatalf("conjugate member not served from cache: %+v", wv)
	}
	if wv.Result.Verified == nil || !*wv.Result.Verified {
		t.Fatal("derived result not verified")
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want one cache hit", st)
	}
}

// TestNoCacheConfiguredKeepsWorkerPath pins the default: without a cache
// the admission path is untouched and results carry no cache fields.
func TestNoCacheConfiguredKeepsWorkerPath(t *testing.T) {
	s, err := New(drainCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer drainAll(t, s)
	j := admitDirect(t, s, permRequest("{1, 0, 7, 2, 3, 4, 5, 6}"))
	waitDone(t, j)
	v := j.view(false)
	if v.Source != sourceWorker || v.Result.CacheHit || v.Result.CanonicalClass != "" {
		t.Fatalf("no-cache job grew cache fields: %+v", v)
	}
	if st := s.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("no-cache stats moved: %+v", st)
	}
}

// TestHealthzCacheCountersAreTheCaches: healthz reports the answer cache's
// own hit and miss counters, since admission makes the only lookups on it.
func TestHealthzCacheCountersAreTheCaches(t *testing.T) {
	cfg := drainCfg(t.TempDir())
	cfg.CacheDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer drainAll(t, s)

	cold := admitDirect(t, s, permRequest("{1, 0, 7, 2, 3, 4, 5, 6}"))
	waitDone(t, cold)
	if warm := admitDirect(t, s, permRequest("{4, 6, 7, 5, 0, 1, 2, 3}")); !warm.view(false).Result.CacheHit {
		t.Fatalf("conjugate member not served from cache: %+v", warm.view(false))
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	got := decodeHealth(t, rec.Body.Bytes()).Stats
	cs := s.cache.Stats()
	if got.CacheHits != cs.Hits || got.CacheMisses != cs.Misses {
		t.Fatalf("healthz cache_hits/cache_misses = %d/%d, cache counts %d/%d",
			got.CacheHits, got.CacheMisses, cs.Hits, cs.Misses)
	}
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", cs.Hits, cs.Misses)
	}
}

// gatedFS holds every read under dir until gate closes, and signals the
// first such read on entered.
type gatedFS struct {
	snapshot.FS
	dir           string
	entered, gate chan struct{}
}

func (f gatedFS) ReadFile(name string) ([]byte, error) {
	if strings.HasPrefix(name, f.dir) {
		select {
		case f.entered <- struct{}{}:
		default:
		}
		<-f.gate
	}
	return f.FS.ReadFile(name)
}

// TestConcurrentCacheHitsJoinOneJob: identical submissions racing through
// a cache hit register one job, and every other submission joins it. The
// first submission's cache probe is held in its disk read, so the others
// pass the pre-probe join check, queue behind it in the cache, and lose
// the registration race.
func TestConcurrentCacheHitsJoinOneJob(t *testing.T) {
	cacheDir := t.TempDir()
	cold := permRequest("{1, 0, 7, 2, 3, 4, 5, 6}")
	c, rerr := compileRequest(&cold, drainCfg("").Ceiling)
	if rerr != nil {
		t.Fatal(rerr)
	}
	warm, err := cache.Open(cacheDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Synthesize(c.spec, c.opts)
	if err := core.InsertAnswer(warm, c.perm, core.OptionsFingerprint(&c.opts), &res).Persist(); err != nil {
		t.Fatal(err)
	}
	if res.CanonicalClass == 0 {
		t.Fatalf("cold answer not cached: %+v", res)
	}

	fsys := gatedFS{FS: snapshot.DiskFS, dir: cacheDir, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	cfg := drainCfg(t.TempDir())
	cfg.CacheDir, cfg.FS = cacheDir, fsys
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainAll(t, s)

	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := permRequest("{4, 6, 7, 5, 0, 1, 2, 3}")
			c, rerr := compileRequest(&req, s.cfg.Ceiling)
			if rerr != nil {
				t.Error(rerr)
				return
			}
			j, _, err := s.admit(c, req)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = j.ID()
		}()
	}
	// The pause only gives the other submissions time to pass the join
	// check while the first one is held; the assertions below hold in
	// every interleaving.
	<-fsys.entered
	time.Sleep(20 * time.Millisecond)
	close(fsys.gate)
	wg.Wait()
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("submissions got different jobs: %v", ids)
		}
	}
	if st := s.Stats(); st.Submitted != 1 || st.Deduplicated != n-1 {
		t.Fatalf("stats = %+v, want submitted 1, deduplicated %d", st, n-1)
	}
}
