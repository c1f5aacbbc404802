package snapshot

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem seam the durable artifacts (checkpoints, ledgers,
// cache entries, quarantine evidence) read and write through. Production
// code uses DiskFS. internal/chaos wraps it to inject faults — a crash at
// an exact operation index (crash-at-every-write-point recovery tests) or
// persistent ENOSPC/EIO/read-only faults per path prefix (graceful-
// degradation soak tests) — and health.GuardFS puts a circuit breaker in
// front of a fault domain.
type FS interface {
	// CreateTemp creates a new unique temporary file in dir (pattern as
	// in os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file (best-effort cleanup of temp files).
	Remove(name string) error
	// SyncDir flushes the directory entry so the rename itself is durable.
	SyncDir(dir string) error
	// ReadFile reads a file whole (as in os.ReadFile). A missing file
	// must surface as an fs.ErrNotExist-wrapping error so callers can
	// tell "no artifact yet" from an I/O fault.
	ReadFile(name string) ([]byte, error)
}

// File is the writable handle CreateTemp returns.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// DiskFS is the real-filesystem FS.
var DiskFS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Some filesystems refuse fsync on directories; the rename is still
	// atomic there, only its durability window widens, so don't fail the
	// checkpoint over it.
	_ = d.Sync()
	return d.Close()
}

// WriteFileN atomically replaces path with the encoded state and reports
// the image size in bytes: the image is written to a fresh temp file in
// the same directory, fsynced, closed, renamed over path, and the
// directory entry is fsynced. A crash (or an injected fault) at any point
// leaves either the previous file intact or the new one complete — the
// partially written temp file is never visible under path. On error the
// temp file is removed best-effort. The size, returned on success only,
// is the checkpoint write/flush telemetry the observability layer records
// (a growing snapshot mirrors a growing frontier, and sudden size jumps
// often explain checkpoint latency).
func WriteFileN(fs FS, path string, st *State) (int64, error) {
	data := Encode(st)
	if err := WriteRaw(fs, path, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// WriteRaw atomically replaces path with data using the same
// temp-file+fsync+rename protocol as WriteFileN. It is the byte-level seam
// the other durable artifacts in the tree (the service's drain ledger, the
// answer cache's entries) share, so one crash-enumerated write path covers
// them all. It is the one-file case of WriteBatch.
func WriteRaw(fs FS, path string, data []byte) error {
	return WriteBatch(fs, filepath.Dir(path), []RawFile{{Name: filepath.Base(path), Data: data}})[0]
}

// RawFile is one file of a WriteBatch: Data replaces the file Name in the
// batch's directory.
type RawFile struct {
	Name string
	Data []byte
}

// WriteBatch atomically replaces each file in dir with its Data and
// returns one error per file (nil: the new bytes are durable). Each file
// goes through WriteRaw's protocol — a fresh temp file in dir, written,
// fsynced, closed and renamed over the file — in order, and only then is
// dir synced, once: n files pay one directory sync instead of n. A crash
// at any point leaves every file with either its old bytes or its complete
// new bytes. A file whose steps fail is left as it was (its temp file
// removed best-effort) and does not stop the others. A failed directory
// sync is reported for every renamed file: the rename landed, but whether
// it survives a crash is unknown.
func WriteBatch(fs FS, dir string, files []RawFile) []error {
	if fs == nil {
		fs = DiskFS
	}
	errs := make([]error, len(files))
	renamed := false
	for i, f := range files {
		errs[i] = replace(fs, dir, f.Name, f.Data)
		renamed = renamed || errs[i] == nil
	}
	if !renamed {
		return errs
	}
	if err := fs.SyncDir(dir); err != nil {
		err = fmt.Errorf("snapshot: sync dir: %w", err)
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
	}
	return errs
}

// replace is WriteBatch's per-file step: everything but the directory
// sync. On error the temp file is removed best-effort.
func replace(fs FS, dir, name string, data []byte) error {
	f, err := fs.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: create temp: %w", err)
	}
	tmp := f.Name()
	fail := func(stage string, err error) error {
		f.Close()
		fs.Remove(tmp)
		return fmt.Errorf("snapshot: %s: %w", stage, err)
	}
	if _, err := f.Write(data); err != nil {
		return fail("write", err)
	}
	if err := f.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("snapshot: close: %w", err)
	}
	if err := fs.Rename(tmp, filepath.Join(dir, name)); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("snapshot: rename: %w", err)
	}
	return nil
}

// ReadFile loads and decodes a snapshot. A missing file surfaces as an
// fs.ErrNotExist-wrapping error (no checkpoint yet — callers start fresh);
// damage surfaces as ErrCorrupt / ErrVersionSkew / ErrNotSnapshot.
func ReadFile(path string) (*State, error) {
	return ReadFileFS(DiskFS, path)
}

// ReadFileFS is ReadFile reading through an injectable FS, so the fault
// harnesses cover the read side of the recovery path too.
func ReadFileFS(fs FS, path string) (*State, error) {
	if fs == nil {
		fs = DiskFS
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
