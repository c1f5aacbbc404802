package health

import (
	"errors"
	"io/fs"

	"repro/internal/snapshot"
)

// GuardFS puts b in front of every I/O operation of inner: while the
// domain is open, operations fail instantly with *ErrOpen (no syscall),
// and outcomes feed the breaker so the domain trips on persistent faults
// and re-closes after a successful probe.
//
// The accounting follows the shape of snapshot.WriteRaw — CreateTemp,
// Write, Sync, Close, Rename, SyncDir — where SyncDir is the final
// operation of a successful atomic replace: it is the one success point
// recorded, so a whole multi-operation write counts as one breaker
// outcome instead of six, and a snapshot.WriteBatch, which syncs its
// directory once, counts as one success however many files it wrote.
// ReadFile records both outcomes (fs.ErrNotExist counts as a *success* —
// the device answered; "no file" is an answer).
// Remove is deliberately unguarded and unrecorded: it is best-effort
// cleanup whose errors are noise (removing an already-missing file fails
// too), and it must keep working during an outage so a heal does not
// resurrect stale artifacts.
func GuardFS(inner snapshot.FS, b *Breaker) snapshot.FS {
	if inner == nil {
		inner = snapshot.DiskFS
	}
	return &guardFS{inner: inner, b: b}
}

type guardFS struct {
	inner snapshot.FS
	b     *Breaker
}

func (g *guardFS) open() error {
	return &ErrOpen{Domain: g.b.Name(), RetryIn: g.b.retryIn()}
}

func (g *guardFS) CreateTemp(dir, pattern string) (snapshot.File, error) {
	if !g.b.Allow() {
		return nil, g.open()
	}
	f, err := g.inner.CreateTemp(dir, pattern)
	if err != nil {
		g.b.Record(err)
		return nil, err
	}
	return &guardFile{inner: f, b: g.b}, nil
}

func (g *guardFS) Rename(oldpath, newpath string) error {
	err := g.inner.Rename(oldpath, newpath)
	if err != nil {
		g.b.Record(err)
	}
	return err
}

func (g *guardFS) Remove(name string) error { return g.inner.Remove(name) }

func (g *guardFS) SyncDir(dir string) error {
	err := g.inner.SyncDir(dir)
	g.b.Record(err)
	return err
}

func (g *guardFS) ReadFile(name string) ([]byte, error) {
	if !g.b.Allow() {
		return nil, g.open()
	}
	data, err := g.inner.ReadFile(name)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		g.b.Record(err)
	} else {
		g.b.Record(nil)
	}
	return data, err
}

type guardFile struct {
	inner snapshot.File
	b     *Breaker
}

func (f *guardFile) Name() string { return f.inner.Name() }

func (f *guardFile) Write(p []byte) (int, error) {
	n, err := f.inner.Write(p)
	if err != nil {
		f.b.Record(err)
	}
	return n, err
}

func (f *guardFile) Sync() error {
	err := f.inner.Sync()
	if err != nil {
		f.b.Record(err)
	}
	return err
}

func (f *guardFile) Close() error {
	err := f.inner.Close()
	if err != nil {
		f.b.Record(err)
	}
	return err
}
