// Package chaos is the fault-injecting filesystem the robustness tests and
// rmrlsd's -chaos mode run the snapshot.FS seam through. One FS combines
// two fault models.
//
// The fault mode is a sick device that stays up: operations under a
// faulted path prefix keep failing with a realistic errno — ENOSPC, EIO,
// EROFS — until the fault is healed. That is the environment rmrlsd's
// fault-domain breakers are built for: the process keeps serving jobs
// while a breaker sheds the feature, then re-closes once the fault clears.
// Faults are keyed by path prefix so one FS can serve a whole state
// directory with the cache subtree on a "full disk" while checkpoints stay
// healthy. They are injected programmatically (Fail/Heal) or by a timed
// Schedule — a CLI-parsable script like
//
//	+2s fail /var/cache enospc; +10s heal /var/cache
//
// that rmrlsd replays in-process for end-to-end chaos runs.
//
// The crash mode (CrashAt) is a process that dies at an exact operation
// index: every operation before the crash point executes normally, the
// crashing one optionally takes partial effect (a torn Write persists a
// prefix of its bytes), and every operation after it fails, so the temp
// files of the dead process linger. Enumerating crash points 0..Ops() of a
// clean run therefore covers every crash-at-a-write-point schedule of the
// atomic write protocol.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"syscall"

	"repro/internal/snapshot"
)

// Mode selects which errno a faulted prefix returns and which operations
// it affects.
type Mode int

const (
	// ENOSPC: writes fail with "no space left on device"; reads and
	// removes still work (a full disk serves existing bytes fine, and
	// removing files is how a full disk gets fixed).
	ENOSPC Mode = iota
	// EIO: every operation fails with "input/output error" — a dying
	// device, reads included.
	EIO
	// EROFS: writes and removes fail with "read-only file system"; reads
	// still work. What a kernel remount-ro after an error looks like.
	EROFS
)

func (m Mode) String() string {
	switch m {
	case ENOSPC:
		return "enospc"
	case EIO:
		return "eio"
	case EROFS:
		return "rofs"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode parses the CLI spelling of a fault mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "enospc", "full":
		return ENOSPC, nil
	case "eio", "io":
		return EIO, nil
	case "rofs", "erofs", "ro":
		return EROFS, nil
	}
	return 0, fmt.Errorf("chaos: unknown fault mode %q (want enospc, eio, or rofs)", s)
}

func (m Mode) errno() error {
	switch m {
	case ENOSPC:
		return syscall.ENOSPC
	case EROFS:
		return syscall.EROFS
	default:
		return syscall.EIO
	}
}

// kind classifies an operation for the fault table.
type kind int

const (
	write kind = iota
	read
	remove
	closing
)

// fails reports whether the mode breaks an operation of kind k. Close
// always reaches the device: leaking descriptors because the disk is full
// would turn one fault into two.
func (m Mode) fails(k kind) bool {
	switch k {
	case write:
		return true
	case read:
		return m == EIO
	case remove:
		return m != ENOSPC
	}
	return false
}

// ErrCrashed is returned by every operation at and after the crash point.
var ErrCrashed = errors.New("chaos: injected crash")

type fault struct {
	prefix string
	mode   Mode
}

// FS wraps an inner snapshot.FS with persistent per-path-prefix faults and
// an optional crash point. The zero value is unusable; use New. Safe for
// concurrent use.
type FS struct {
	inner snapshot.FS

	mu     sync.Mutex
	faults []fault // longest-prefix match wins

	writeErrs, readErrs int64

	ops     int // operations attempted, the crashing one included
	crashAt int // operation index that crashes; -1 = never
	tear    int // bytes a crashing Write persists before failing
	crashed bool
}

// New wraps inner (nil: the real disk) with no faults active and no crash
// point armed.
func New(inner snapshot.FS) *FS {
	if inner == nil {
		inner = snapshot.DiskFS
	}
	return &FS{inner: inner, crashAt: -1}
}

// Fail makes every operation under prefix fault with mode until Heal.
// Re-failing an already-faulted prefix replaces its mode.
func (f *FS) Fail(prefix string, mode Mode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.faults {
		if f.faults[i].prefix == prefix {
			f.faults[i].mode = mode
			return
		}
	}
	f.faults = append(f.faults, fault{prefix: prefix, mode: mode})
	// Longest prefix first so nested faults shadow outer ones.
	sort.SliceStable(f.faults, func(i, j int) bool {
		return len(f.faults[i].prefix) > len(f.faults[j].prefix)
	})
}

// Heal clears the fault on prefix. Healing a healthy prefix is a no-op.
func (f *FS) Heal(prefix string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.faults {
		if f.faults[i].prefix == prefix {
			f.faults = append(f.faults[:i], f.faults[i+1:]...)
			return
		}
	}
}

// HealAll clears every fault.
func (f *FS) HealAll() {
	f.mu.Lock()
	f.faults = nil
	f.mu.Unlock()
}

// InjectedErrors reports how many operations failed by a prefix fault
// (writes+removes, reads).
func (f *FS) InjectedErrors() (writes, reads int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeErrs, f.readErrs
}

// CrashAt arms the crash mode: operations op..∞, counted from New, fail
// with ErrCrashed. If the crashing operation is a Write, tear bytes of it
// are persisted first — a torn write. Operations counted: CreateTemp, each
// Write, Sync, Close, Rename, SyncDir, Remove, ReadFile. A negative op
// disarms the crash point.
func (f *FS) CrashAt(op, tear int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt, f.tear = op, tear
}

// Ops returns how many operations have been attempted (including the
// crashing one). Run a schedule without a crash point first to learn the
// total.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the crash point was reached.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// check decides one operation of kind k on path: it consumes a slot of the
// crash schedule, then consults the fault table. tear is the byte count
// the crashing operation may persist, -1 for every other operation.
func (f *FS) check(op, path string, k kind) (tear int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.ops
	f.ops++
	switch {
	case f.crashed:
		return -1, ErrCrashed
	case n == f.crashAt:
		f.crashed = true
		return f.tear, ErrCrashed
	}
	for _, fa := range f.faults {
		if strings.HasPrefix(path, fa.prefix) {
			if !fa.mode.fails(k) {
				break
			}
			if k == read {
				f.readErrs++
			} else {
				f.writeErrs++
			}
			return -1, &pathError{op, path, fa.mode.errno()}
		}
	}
	return -1, nil
}

func (f *FS) CreateTemp(dir, pattern string) (snapshot.File, error) {
	if _, err := f.check("createtemp", dir, write); err != nil {
		return nil, err
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &chaosFile{fs: f, inner: file}, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	if _, err := f.check("rename", newpath, write); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	if _, err := f.check("remove", name, remove); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FS) SyncDir(dir string) error {
	if _, err := f.check("syncdir", dir, write); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	if _, err := f.check("readfile", name, read); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

// pathError mirrors the shape of os.PathError so injected errors print
// and unwrap like real ones (errors.Is(err, syscall.ENOSPC) works).
type pathError struct {
	op   string
	path string
	err  error
}

func (e *pathError) Error() string { return "chaos: " + e.op + " " + e.path + ": " + e.err.Error() }
func (e *pathError) Unwrap() error { return e.err }

type chaosFile struct {
	fs    *FS
	inner snapshot.File
}

func (f *chaosFile) Name() string { return f.inner.Name() }

func (f *chaosFile) Write(p []byte) (int, error) {
	tear, err := f.fs.check("write", f.inner.Name(), write)
	if err != nil {
		if tear >= 0 {
			// Torn write: a prefix of the data reaches the disk before
			// the crash, and the file is left behind exactly like a real
			// interrupted write would leave it.
			if n := min(tear, len(p)); n > 0 {
				f.inner.Write(p[:n])
			}
			f.inner.Close()
		}
		return 0, err
	}
	return f.inner.Write(p)
}

func (f *chaosFile) Sync() error {
	if _, err := f.fs.check("sync", f.inner.Name(), write); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *chaosFile) Close() error {
	_, err := f.fs.check("close", f.inner.Name(), closing)
	if cerr := f.inner.Close(); err == nil {
		return cerr
	}
	return err
}
