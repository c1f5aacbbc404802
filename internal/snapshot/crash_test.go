package snapshot_test

// The crash-safety proofs of the write protocol, run through the crash mode
// of the chaos filesystem. They live in an external test package because
// chaos imports snapshot.

import (
	"bytes"
	"errors"
	iofs "io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bits"
	"repro/internal/chaos"
	"repro/internal/snapshot"
)

func crashState(steps int) *snapshot.State {
	return &snapshot.State{
		SpecHash: 11,
		Root: snapshot.SpecState{
			N:   2,
			Out: []snapshot.TermSetState{{Terms: []bits.Mask{1}, Cap: 1}, {Terms: []bits.Mask{2, 3}, Cap: 2}},
		},
		Nodes:   []snapshot.NodeState{{Parent: -1, Target: -1, Materialized: true}},
		Queued:  []int{0},
		BestSol: -1,
		Steps:   steps,
	}
}

// TestAtomicReplaceUnderEveryCrashPoint is the core crash-safety proof for
// the write protocol: with a valid snapshot A on disk, an overwrite with
// snapshot B that crashes at every possible operation index — with the
// crashing write torn at several prefix lengths — must leave the path
// readable as exactly A or exactly B. Never a mix, never corruption that
// goes undetected, never a panic.
func TestAtomicReplaceUnderEveryCrashPoint(t *testing.T) {
	// Learn the operation count of a clean overwrite.
	probeDir := t.TempDir()
	probePath := filepath.Join(probeDir, "probe.ckpt")
	if _, err := snapshot.WriteFileN(nil, probePath, crashState(1)); err != nil {
		t.Fatal(err)
	}
	probe := chaos.New(nil)
	if _, err := snapshot.WriteFileN(probe, probePath, crashState(2)); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < 5 { // CreateTemp, Write, Sync, Close, Rename, SyncDir at minimum
		t.Fatalf("unexpectedly few operations in a clean write: %d", total)
	}

	imageLen := len(snapshot.Encode(crashState(2)))
	for crashAt := 0; crashAt < total; crashAt++ {
		for _, tear := range []int{0, 1, 7, imageLen / 2, imageLen} {
			dir := t.TempDir()
			path := filepath.Join(dir, "run.ckpt")
			if _, err := snapshot.WriteFileN(nil, path, crashState(1)); err != nil {
				t.Fatal(err)
			}
			fs := chaos.New(nil)
			fs.CrashAt(crashAt, tear)
			_, err := snapshot.WriteFileN(fs, path, crashState(2))
			if !fs.Crashed() {
				t.Fatalf("crashAt=%d: crash point never reached (total=%d)", crashAt, total)
			}
			st, rerr := snapshot.ReadFile(path)
			if rerr != nil {
				t.Fatalf("crashAt=%d tear=%d: checkpoint unreadable after crash: %v (write err: %v)", crashAt, tear, rerr, err)
			}
			if st.Steps != 1 && st.Steps != 2 {
				t.Fatalf("crashAt=%d tear=%d: impossible state Steps=%d", crashAt, tear, st.Steps)
			}
			if err != nil && st.Steps == 2 {
				// A reported failure with the new file visible is allowed
				// only when the crash hit cleanup after the rename.
				if crashAt < total-2 {
					t.Fatalf("crashAt=%d tear=%d: write failed (%v) but new snapshot visible", crashAt, tear, err)
				}
			}
		}
	}
}

// TestFreshWriteUnderEveryCrashPoint covers the no-previous-file case: a
// crashed first checkpoint must leave either no file (ErrNotExist) or the
// complete new file — a torn temp file must never be visible at the path.
func TestFreshWriteUnderEveryCrashPoint(t *testing.T) {
	probe := chaos.New(nil)
	probeDir := t.TempDir()
	if _, err := snapshot.WriteFileN(probe, filepath.Join(probeDir, "p.ckpt"), crashState(2)); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()

	for crashAt := 0; crashAt < total; crashAt++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "run.ckpt")
		fs := chaos.New(nil)
		fs.CrashAt(crashAt, 9)
		_, werr := snapshot.WriteFileN(fs, path, crashState(2))
		st, rerr := snapshot.ReadFile(path)
		switch {
		case rerr == nil:
			if st.Steps != 2 {
				t.Fatalf("crashAt=%d: wrong state visible: %+v", crashAt, st)
			}
		case errors.Is(rerr, snapshot.ErrNotSnapshot), errors.Is(rerr, snapshot.ErrCorrupt):
			t.Fatalf("crashAt=%d: torn file visible at final path: %v", crashAt, rerr)
		default:
			// Missing file: fine, and the write must have reported failure.
			if werr == nil {
				t.Fatalf("crashAt=%d: write reported success but file missing", crashAt)
			}
		}
	}
}

// TestBatchWriteUnderEveryCrashPoint: a three-file batch — two overwrites
// and one fresh file — that crashes at every operation index, with the
// crashing write torn at 0 and 3 bytes, must leave each path holding its
// old bytes (none, for the fresh file) or its complete new bytes. A file
// the batch reported written must hold its new bytes.
func TestBatchWriteUnderEveryCrashPoint(t *testing.T) {
	names := []string{"a.rmce", "b.rmce", "c.rmce"}
	oldData := [][]byte{[]byte("old a"), []byte("old b"), nil}
	files := make([]snapshot.RawFile, len(names))
	for i, name := range names {
		files[i] = snapshot.RawFile{Name: name, Data: []byte("new " + name + " bytes")}
	}
	setup := func(t *testing.T) string {
		dir := t.TempDir()
		for i, name := range names {
			if oldData[i] != nil {
				if err := snapshot.WriteRaw(nil, filepath.Join(dir, name), oldData[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dir
	}

	probe := chaos.New(nil)
	for i, err := range snapshot.WriteBatch(probe, setup(t), files) {
		if err != nil {
			t.Fatalf("clean batch, file %d: %v", i, err)
		}
	}
	total := probe.Ops()
	if want := 5*len(names) + 1; total != want { // five steps per file, one SyncDir
		t.Fatalf("clean batch took %d operations, want %d", total, want)
	}

	for _, tear := range []int{0, 3} {
		for crashAt := 0; crashAt < total; crashAt++ {
			dir := setup(t)
			fs := chaos.New(nil)
			fs.CrashAt(crashAt, tear)
			errs := snapshot.WriteBatch(fs, dir, files)
			if !fs.Crashed() {
				t.Fatalf("crashAt=%d: crash point never reached (total=%d)", crashAt, total)
			}
			for i, f := range files {
				got, rerr := os.ReadFile(filepath.Join(dir, f.Name))
				switch {
				case rerr == nil && bytes.Equal(got, f.Data):
				case errs[i] != nil && rerr == nil && oldData[i] != nil && bytes.Equal(got, oldData[i]):
				case errs[i] != nil && errors.Is(rerr, iofs.ErrNotExist) && oldData[i] == nil:
				default:
					t.Fatalf("crashAt=%d tear=%d: %s holds %q (read err %v, write err %v)",
						crashAt, tear, names[i], got, rerr, errs[i])
				}
			}
		}
	}
}

// failRename fails the rename onto one path and counts directory syncs.
type failRename struct {
	snapshot.FS
	path  string
	syncs int
}

func (f *failRename) Rename(oldpath, newpath string) error {
	if newpath == f.path {
		return errors.New("injected rename failure")
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *failRename) SyncDir(dir string) error {
	f.syncs++
	return f.FS.SyncDir(dir)
}

// TestBatchWriteFailureIsPerFile: a file that fails mid-batch reports its
// own error and stays absent, the files around it are written, and the
// directory is synced once.
func TestBatchWriteFailureIsPerFile(t *testing.T) {
	dir := t.TempDir()
	var files []snapshot.RawFile
	for _, name := range []string{"a", "b", "c"} {
		files = append(files, snapshot.RawFile{Name: name, Data: []byte(name)})
	}
	fs := &failRename{FS: snapshot.DiskFS, path: filepath.Join(dir, "b")}
	errs := snapshot.WriteBatch(fs, dir, files)
	for i, f := range files {
		_, rerr := os.ReadFile(filepath.Join(dir, f.Name))
		if failed := f.Name == "b"; (errs[i] != nil) != failed || (rerr != nil) != failed {
			t.Errorf("%s: write err %v, read err %v; want both nil, or both set for the failed rename", f.Name, errs[i], rerr)
		}
	}
	if fs.syncs != 1 {
		t.Errorf("%d directory syncs, want 1", fs.syncs)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}
