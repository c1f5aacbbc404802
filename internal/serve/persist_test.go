package serve

import (
	"context"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// gatedWriteFS holds every CreateTemp under dir until release, signalling
// each one on entered — an answer-cache write stuck in a slow fsync.
type gatedWriteFS struct {
	snapshot.FS
	dir           string
	entered, gate chan struct{}
	once          *sync.Once
}

func (f gatedWriteFS) release() { f.once.Do(func() { close(f.gate) }) }

func (f gatedWriteFS) CreateTemp(dir, pattern string) (snapshot.File, error) {
	if strings.HasPrefix(dir, f.dir) {
		f.entered <- struct{}{}
		<-f.gate
	}
	return f.FS.CreateTemp(dir, pattern)
}

// waitCacheWrites blocks until the cache writer has written, or failed to
// write, every entry handed to it so far.
func (s *Server) waitCacheWrites() {
	s.cacheWrites.mu.Lock()
	done := s.cacheWrites.done
	s.cacheWrites.mu.Unlock()
	if done != nil {
		<-done
	}
}

// syncCountFS counts the directory syncs that reach the filesystem.
type syncCountFS struct {
	snapshot.FS
	syncs atomic.Int64
}

func (f *syncCountFS) SyncDir(dir string) error {
	f.syncs.Add(1)
	return f.FS.SyncDir(dir)
}

// gatedCacheServer starts a one-worker server whose answer-cache writes
// block until the returned FS is released (the test's cleanup releases it
// before the server drains).
func gatedCacheServer(t *testing.T) (*Server, string, gatedWriteFS) {
	t.Helper()
	cacheDir := t.TempDir()
	fsys := gatedWriteFS{FS: snapshot.DiskFS, dir: cacheDir,
		entered: make(chan struct{}, 1), gate: make(chan struct{}), once: new(sync.Once)}
	s, ts := startTestServer(t, Config{Workers: 1, CacheDir: cacheDir, FS: fsys})
	t.Cleanup(fsys.release)
	return s, ts.URL, fsys
}

// postWait submits a waiting job for the Fig. 1 function off the test
// goroutine and delivers its HTTP status (or 0 on a transport error).
func postWait(url string) <-chan int { return postPermWait(url, "{1, 0, 7, 2, 3, 4, 5, 6}") }

// postPermWait is postWait for the permutation p.
func postPermWait(url, p string) <-chan int {
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(
			`{"spec":{"perm":"`+p+`"},"budget":{"time_ms":30000},"wait":true}`))
		if err != nil {
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	return status
}

func cacheEntries(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.rmce"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestWaitResponseDoesNotWaitForCacheWrite: a cold answer's 200 reaches
// the client while its answer-cache write is still blocked, and a
// conjugate submitted meanwhile is answered from memory at admission.
func TestWaitResponseDoesNotWaitForCacheWrite(t *testing.T) {
	s, url, fsys := gatedCacheServer(t)
	status := postWait(url)
	<-fsys.entered
	select {
	case code := <-status:
		if code != http.StatusOK {
			t.Fatalf("submit = %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the 200 waited for the answer-cache write")
	}
	warm := admitDirect(t, s, permRequest("{4, 6, 7, 5, 0, 1, 2, 3}"))
	if v := warm.view(false); warm.Status() != StatusDone || v.Source != sourceCache {
		t.Fatalf("conjugate during the blocked write: status %s source %q, want a cache hit", warm.Status(), v.Source)
	}
	if got := cacheEntries(t, fsys.dir); len(got) != 0 {
		t.Fatalf("entry on disk before its write was released: %v", got)
	}
}

// TestDrainWaitsForCacheWrite: the write the worker runs after answering
// is worker work — Drain returns only once it is released, and the entry
// is on disk afterwards.
func TestDrainWaitsForCacheWrite(t *testing.T) {
	s, url, fsys := gatedCacheServer(t)
	status := postWait(url)
	<-fsys.entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (err %v) while the cache write was blocked", err)
	case <-time.After(100 * time.Millisecond):
	}
	fsys.release()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the cache write was released")
	}
	if code := <-status; code != http.StatusOK {
		t.Fatalf("submit = %d, want 200", code)
	}
	if got := cacheEntries(t, fsys.dir); len(got) != 1 {
		t.Fatalf("entry files after drain = %v, want exactly one", got)
	}
}

// coldPerms are 3-variable functions of distinct classes: each one's cold
// answer stores a new cache entry.
var coldPerms = []string{
	"{0, 1, 2, 3, 4, 5, 7, 6}",
	"{1, 0, 3, 2, 5, 4, 7, 6}",
	"{7, 6, 5, 4, 3, 2, 1, 0}",
	"{1, 2, 3, 4, 5, 6, 7, 0}",
}

// TestCacheWriteDoesNotHoldWorker: while the cache write of one cold
// answer is blocked, the server's only worker still answers a cold job of
// another class.
func TestCacheWriteDoesNotHoldWorker(t *testing.T) {
	s, url, fsys := gatedCacheServer(t)
	if code := <-postWait(url); code != http.StatusOK {
		t.Fatalf("first submit = %d, want 200", code)
	}
	<-fsys.entered
	select {
	case code := <-postPermWait(url, coldPerms[0]):
		if code != http.StatusOK {
			t.Fatalf("second submit = %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the only worker waited for the blocked cache write")
	}
	if got := s.Stats().Completed; got != 2 {
		t.Fatalf("worker-completed jobs = %d, want both cold jobs", got)
	}
}

// TestDrainFlushesEveryCacheWrite: cold answers given by two workers at
// once while the cache writer is blocked are all on disk once Drain
// returns, and they were written under fewer directory syncs than entries.
func TestDrainFlushesEveryCacheWrite(t *testing.T) {
	cacheDir := t.TempDir()
	// entered is never read here: it holds one send per entry write.
	gated := gatedWriteFS{FS: snapshot.DiskFS, dir: cacheDir,
		entered: make(chan struct{}, len(coldPerms)), gate: make(chan struct{}), once: new(sync.Once)}
	fsys := &syncCountFS{FS: gated}
	s, ts := startTestServer(t, Config{Workers: 2, CacheDir: cacheDir, FS: fsys})
	t.Cleanup(gated.release)

	var statuses []<-chan int
	for _, p := range coldPerms {
		statuses = append(statuses, postPermWait(ts.URL, p))
	}
	for i, status := range statuses {
		if code := <-status; code != http.StatusOK {
			t.Fatalf("submit %s = %d, want 200", coldPerms[i], code)
		}
	}
	gated.release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := cacheEntries(t, cacheDir); len(got) != len(coldPerms) {
		t.Fatalf("entry files after drain = %v, want %d", got, len(coldPerms))
	}
	if n := fsys.syncs.Load(); n >= int64(len(coldPerms)) {
		t.Fatalf("%d directory syncs for %d entries, want fewer", n, len(coldPerms))
	}
}
