package serve

import (
	"context"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
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

// postWait submits a waiting job off the test goroutine and delivers its
// HTTP status (or 0 on a transport error).
func postWait(url string) <-chan int {
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(
			`{"spec":{"perm":"{1, 0, 7, 2, 3, 4, 5, 6}"},"budget":{"time_ms":30000},"wait":true}`))
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
