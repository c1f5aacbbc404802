package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/bits"
)

// sampleState builds a small but fully populated state (nodes, queue,
// solution, first moves, transposition table) for format tests.
func sampleState() *State {
	return &State{
		SpecHash:  0xdeadbeefcafef00d,
		OptionsFP: 0x0123456789abcdef,
		Root: SpecState{
			N: 3,
			Out: []TermSetState{
				{Terms: []bits.Mask{1, 3, 5}, Cap: 4},
				{Terms: []bits.Mask{2}, Cap: 1},
				{Terms: []bits.Mask{0, 4, 6, 7}, Cap: 6},
			},
		},
		Nodes: []NodeState{
			{Parent: -1, ID: 0, Target: -1, Materialized: true},
			{Parent: 0, ID: 1, Target: 1, Factor: 4, Materialized: true},
			{Parent: 1, ID: 3, Target: 0, Factor: 6},
			{Parent: 1, ID: 4, Target: 2, Factor: 1},
		},
		Queued:            []int{3, 2},
		BestSol:           -1,
		Steps:             123,
		StepsSinceRestart: 23,
		SolSteps:          0,
		NodesCreated:      5,
		Restarts:          1,
		FirstMoves: []FirstMoveState{
			{Target: 1, Factor: 4},
			{Target: 0, Factor: 2},
		},
		NextFirstMove: 1,
		Elapsed:       1500 * time.Millisecond,
		PeakBytes:     1 << 20,
		TT: &TTState{
			Keys:      []uint64{5, 99, 1 << 40, 1<<63 + 17},
			Depths:    []int32{1, 2, 0, 7},
			Hits:      10,
			Misses:    20,
			Evictions: 3,
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for name, st := range map[string]*State{
		"full": sampleState(),
		"minimal": {
			Root:    SpecState{N: 1, Out: []TermSetState{{Terms: nil, Cap: 0}}},
			Nodes:   []NodeState{{Parent: -1, Target: -1, Materialized: true}},
			Queued:  []int{0},
			BestSol: -1,
		},
	} {
		data := Encode(st)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		// nil and empty slices compare unequal under DeepEqual; normalize.
		if len(got.Queued) == 0 {
			got.Queued, st.Queued = nil, nil
		}
		for i := range got.Root.Out {
			if len(got.Root.Out[i].Terms) == 0 {
				got.Root.Out[i].Terms, st.Root.Out[i].Terms = nil, nil
			}
		}
		if len(got.FirstMoves) == 0 {
			got.FirstMoves, st.FirstMoves = nil, nil
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("%s: round trip mismatch\n got %+v\nwant %+v", name, got, st)
		}
		// Deterministic encoding: encode(decode(x)) == x byte-for-byte.
		if string(Encode(got)) != string(data) {
			t.Fatalf("%s: re-encode differs", name)
		}
	}
}

// TestDecodeTruncated verifies that every possible truncation of a valid
// snapshot is rejected with a typed error — never a panic, never success.
func TestDecodeTruncated(t *testing.T) {
	data := Encode(sampleState())
	for n := 0; n < len(data); n++ {
		st, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully: %+v", n, len(data), st)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotSnapshot) && !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("truncation to %d bytes: untyped error %v", n, err)
		}
	}
}

// TestDecodeBitFlips flips every single bit of a valid snapshot and
// verifies the damage is always detected (magic, version, length, and
// payload are all covered by structural checks or the CRC).
func TestDecodeBitFlips(t *testing.T) {
	data := Encode(sampleState())
	for i := 0; i < len(data); i++ {
		for b := 0; b < 8; b++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << b
			st, err := Decode(mut)
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d went undetected: %+v", i, b, st)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotSnapshot) && !errors.Is(err, ErrVersionSkew) {
				t.Fatalf("bit flip at byte %d bit %d: untyped error %v", i, b, err)
			}
		}
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	data := Encode(sampleState())
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(mut[len(magic):], Version+1)
	if _, err := Decode(mut); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("future version: got %v, want ErrVersionSkew", err)
	}
	binary.LittleEndian.PutUint16(mut[len(magic):], 0)
	if _, err := Decode(mut); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("version 0: got %v, want ErrVersionSkew", err)
	}
}

// TestDecodeV1Rejected: a version-1 checkpoint (written by the format
// that stored derived node values, testdata/v1-swap4.snap) is refused with
// ErrVersionSkew, which every caller treats as "start fresh".
func TestDecodeV1Rejected(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1-swap4.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("v1 checkpoint: got %v, want ErrVersionSkew", err)
	}
}

func TestDecodeNotSnapshot(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("hello"), []byte("# a PPRM file\na' = a\n")} {
		if _, err := Decode(data); !errors.Is(err, ErrNotSnapshot) {
			t.Fatalf("Decode(%q): got %v, want ErrNotSnapshot", data, err)
		}
	}
}

// TestDecodeHugeCounts verifies that a forged count field cannot force a
// huge allocation: counts are bounds-checked against the remaining bytes.
func TestDecodeHugeCounts(t *testing.T) {
	// Hand-build a payload claiming 2^60 nodes.
	var e encoder
	e.u64(1) // spec hash
	e.u64(2) // options fp
	e.uvarint(1)
	e.uvarint(0) // out[0] cap
	e.uvarint(0) // out[0] len
	e.uvarint(1 << 60)
	payload := e.buf
	data := make([]byte, 0, headerSize+len(payload))
	data = append(data, magic...)
	data = binary.LittleEndian.AppendUint16(data, Version)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(payload)))
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(payload))
	data = append(data, payload...)
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged node count: got %v, want ErrCorrupt", err)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	st := sampleState()
	if _, err := WriteFileN(nil, path, st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecHash != st.SpecHash || got.Steps != st.Steps {
		t.Fatalf("read back mismatch: %+v", got)
	}
	// Overwrite must leave no temp files behind.
	st.Steps = 456
	if _, err := WriteFileN(nil, path, st); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory not clean after overwrite: %v", entries)
	}
	got, err = ReadFile(path)
	if err != nil || got.Steps != 456 {
		t.Fatalf("overwrite not visible: steps=%d err=%v", got.Steps, err)
	}
}

func TestReadFileMissing(t *testing.T) {
	_, err := ReadFile(filepath.Join(t.TempDir(), "nope.ckpt"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: got %v, want ErrNotExist", err)
	}
}

func FuzzDecode(f *testing.F) {
	f.Add(Encode(sampleState()))
	f.Add(Encode(&State{Root: SpecState{N: 1, Out: []TermSetState{{}}}, BestSol: -1}))
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			return
		}
		// Anything Decode accepts must re-encode without panicking and
		// decode back to the same bytes (canonical form).
		if _, err := Decode(Encode(st)); err != nil {
			t.Fatalf("accepted state fails round trip: %v", err)
		}
	})
}
