package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/snapshot"
)

func TestENOSPCFailsWritesButNotReads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.snap")
	fs := New(nil)
	if err := snapshot.WriteRaw(fs, path, []byte("before")); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	fs.Fail(dir, ENOSPC)
	err := snapshot.WriteRaw(fs, path, []byte("after"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write under enospc = %v, want ENOSPC", err)
	}
	// Reads still serve the old bytes.
	data, err := fs.ReadFile(path)
	if err != nil || string(data) != "before" {
		t.Fatalf("read under enospc = %q/%v, want old contents", data, err)
	}
	// Remove still works — that is how full disks get fixed.
	if err := fs.Remove(path); err != nil {
		t.Fatalf("remove under enospc: %v", err)
	}

	fs.Heal(dir)
	if err := snapshot.WriteRaw(fs, path, []byte("healed")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if w, r := fs.InjectedErrors(); w == 0 || r != 0 {
		t.Errorf("injected errors = %d/%d, want writes>0 reads=0", w, r)
	}
}

func TestEIOFailsReadsToo(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := New(nil)
	fs.Fail(dir, EIO)
	if _, err := fs.ReadFile(path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("read under eio = %v, want EIO", err)
	}
	if err := fs.Remove(path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("remove under eio = %v, want EIO", err)
	}
}

func TestEROFSFailsWritesAndRemoves(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := New(nil)
	fs.Fail(dir, EROFS)
	if err := snapshot.WriteRaw(fs, path, []byte("y")); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("write under rofs = %v, want EROFS", err)
	}
	if err := fs.Remove(path); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("remove under rofs = %v, want EROFS", err)
	}
	if data, err := fs.ReadFile(path); err != nil || string(data) != "x" {
		t.Fatalf("read under rofs = %q/%v, want contents", data, err)
	}
}

func TestPrefixScoping(t *testing.T) {
	root := t.TempDir()
	cacheDir := filepath.Join(root, "cache")
	stateDir := filepath.Join(root, "state")
	for _, d := range []string{cacheDir, stateDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	fs := New(nil)
	fs.Fail(cacheDir, ENOSPC)
	if err := snapshot.WriteRaw(fs, filepath.Join(cacheDir, "a"), []byte("x")); err == nil {
		t.Fatal("write under faulted prefix succeeded")
	}
	if err := snapshot.WriteRaw(fs, filepath.Join(stateDir, "a"), []byte("x")); err != nil {
		t.Fatalf("write under healthy sibling prefix: %v", err)
	}
}

func TestMidWriteFaultTearsTheAtomicProtocol(t *testing.T) {
	// A fault injected between CreateTemp and Sync fails the in-flight
	// write: the destination must be untouched.
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fs := New(nil)
	if err := snapshot.WriteRaw(fs, path, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	f, err := fs.CreateTemp(dir, "f.tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	fs.Fail(dir, ENOSPC)
	if _, err := f.Write([]byte("torn")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("mid-flight write = %v, want ENOSPC", err)
	}
	f.Close()
	if data, _ := fs.ReadFile(path); string(data) != "committed" {
		t.Fatalf("destination = %q, want previous contents", data)
	}
}

func TestParseScheduleAndRun(t *testing.T) {
	sched, err := ParseSchedule(" +0ms fail cache enospc ; 30ms heal cache,+10ms fail state eio ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 3 {
		t.Fatalf("parsed %d events, want 3", len(sched))
	}
	// Sorted by offset.
	if !(sched[0].After <= sched[1].After && sched[1].After <= sched[2].After) {
		t.Fatalf("schedule not sorted: %v", sched)
	}
	root := t.TempDir()
	sched = sched.Rewrite(map[string]string{
		"cache": filepath.Join(root, "cache"),
		"state": filepath.Join(root, "state"),
	})

	fs := New(nil)
	fired := make(chan Event, 3)
	stop := sched.Run(fs, func(ev Event) { fired <- ev })
	defer stop()
	for i := 0; i < 3; i++ {
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d never fired", i)
		}
	}
	// End state: cache healed, state faulted with EIO.
	if _, err := fs.ReadFile(filepath.Join(root, "state", "x")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("state read = %v, want EIO", err)
	}
	if err := os.MkdirAll(filepath.Join(root, "cache"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteRaw(fs, filepath.Join(root, "cache", "x"), []byte("y")); err != nil {
		t.Fatalf("cache write after heal: %v", err)
	}
}

func TestParseScheduleRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"+1s explode cache",
		"+1s fail cache",
		"+1s fail cache warp",
		"+1s heal cache extra",
		"soon fail cache eio",
		"-1s fail cache eio",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted garbage", bad)
		}
	}
	if s, err := ParseSchedule(""); err != nil || len(s) != 0 {
		t.Errorf("empty schedule = %v/%v, want empty/nil", s, err)
	}
}

// TestInjectedErrorIsTyped: a crash surfaces as ErrCrashed through the
// atomic write protocol, and so does every operation after it.
func TestInjectedErrorIsTyped(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil)
	fs.CrashAt(0, 0)
	if err := snapshot.WriteRaw(fs, filepath.Join(dir, "x"), []byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("got %v, want wrapped ErrCrashed", err)
	}
	if _, err := fs.ReadFile(filepath.Join(dir, "x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after the crash = %v, want ErrCrashed", err)
	}
	if !fs.Crashed() || fs.Ops() != 2 {
		t.Fatalf("crashed=%v ops=%d, want true/2", fs.Crashed(), fs.Ops())
	}
}

// TestCrashTearsTheWriteAndLeavesTheTempFile: a crash on the Write persists
// tear bytes of it into the temp file, which lingers — the process that
// would have removed it is dead — while the destination is never created.
func TestCrashTearsTheWriteAndLeavesTheTempFile(t *testing.T) {
	dir := t.TempDir()
	fs := New(nil)
	fs.CrashAt(1, 3) // CreateTemp, then the Write
	if err := snapshot.WriteRaw(fs, filepath.Join(dir, "f"), []byte("abcdef")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write = %v, want ErrCrashed", err)
	}
	if fs.Ops() != 4 { // CreateTemp, Write, then the failed Close and Remove
		t.Errorf("ops = %d, want 4", fs.Ops())
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("dir holds %v (%v), want the torn temp file only", ents, err)
	}
	if data, _ := os.ReadFile(filepath.Join(dir, ents[0].Name())); string(data) != "abc" {
		t.Errorf("temp file = %q, want the 3-byte torn prefix", data)
	}
}
