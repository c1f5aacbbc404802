// Package snapshot implements the durable checkpoint format for long
// synthesis runs: a versioned, CRC32-checksummed binary serialization of
// the RMRLS searcher state, written atomically via temp-file + fsync +
// rename so a crash at any instant leaves either the previous checkpoint
// or the new one — never a torn file that parses.
//
// A snapshot stores facts, not derived values, following the paper's
// memory optimization of keeping only each node's substitution (§IV):
//
//   - stored: the root's PPRM expansion; per node its parent, ID,
//     (target, factor) substitution and whether it was materialized; the
//     queue order; the best solution's node; the counters; the restart
//     heuristic's first moves (target, factor) and cursor; the
//     transposition table; the cumulative elapsed time and peak bytes;
//   - derived on restore: every node's depth, term count, state hash,
//     elimination and priority (by replaying its substitution on its
//     parent's expansion), every materialized expansion, and the best
//     depth.
//
// A recorded derived value could disagree with the state it was derived
// from; since none is stored, no such disagreement can be written down.
// A run writes a final snapshot only when it stops for a resumable reason
// (core's StopReason.Resumable: canceled, deadline, step limit, memory
// limit); every other stop is terminal.
//
// The package deliberately splits responsibilities: it owns the byte
// format and the crash-safe file protocol, while internal/core owns the
// semantic mapping between a live searcher and a State. Decode performs
// structural validation only (bounds, counts, checksums); core re-derives
// every search value and checks every structural invariant before
// resuming, so a snapshot that passes both layers either resumes exactly
// or is rejected with a typed error — it can never panic the process or
// smuggle in a wrong circuit past the verification gate.
//
// Format (all integers little-endian; varints are encoding/binary):
//
//	magic   [6]byte "RMSNAP"
//	version uint16  — 2
//	length  uint32  — payload byte count; file size must equal 16+length
//	crc     uint32  — IEEE CRC32 of the payload
//	payload — field stream in the order Encode writes it
//
// Version policy (see DESIGN.md): the version is bumped on any layout
// change; readers reject versions they do not know with ErrVersionSkew
// instead of guessing. Checkpoints are short-lived operational artifacts,
// not archival data — there is no cross-version migration, and every
// caller treats ErrVersionSkew as "start fresh".
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"repro/internal/bits"
)

// Version is the current snapshot format version. Version 1 also stored
// the values that version 2 leaves to restore to derive.
const Version = 2

const (
	magic      = "RMSNAP"
	headerSize = len(magic) + 2 + 4 + 4
)

// Typed recovery errors. Callers distinguish "this file cannot be used,
// start fresh" (all of these) from I/O errors such as a missing file.
var (
	// ErrNotSnapshot reports that the file does not begin with the
	// snapshot magic — it is some other file, not a damaged checkpoint.
	ErrNotSnapshot = errors.New("snapshot: not a snapshot file")
	// ErrVersionSkew reports a well-formed header whose version this
	// build does not understand (written by a newer or older build).
	ErrVersionSkew = errors.New("snapshot: unsupported format version")
	// ErrCorrupt reports truncation, checksum mismatch, or a payload
	// that does not decode — a torn or bit-damaged file.
	ErrCorrupt = errors.New("snapshot: corrupt or truncated")
)

// TermSetState is one output's PPRM term set: the strictly increasing term
// masks plus the backing capacity (the search's memory accounting is
// capacity-based, so an exact restore must reproduce it).
type TermSetState struct {
	Terms []bits.Mask
	Cap   int
}

// SpecState is a full PPRM expansion — only the search root's expansion is
// stored; every other node's expansion is delta-encoded implicitly as its
// (target, factor) substitution and re-derived by replay on restore.
type SpecState struct {
	N   int
	Out []TermSetState
}

// NodeState is one search-tree node: its place in the tree and its
// substitution, nothing derived from them. Restore recomputes the depth,
// term count, state hash, elimination and priority by replaying the
// substitution on the parent's expansion. Nodes are stored in topological
// order (Parent < index for every non-root node); index 0 is the root.
type NodeState struct {
	Parent       int // index into State.Nodes; -1 for the root
	ID           int
	Target       int // substitution target variable; -1 for the root
	Factor       uint32
	Materialized bool // node held a materialized expansion when saved
}

// FirstMoveState is one entry of the restart heuristic's first-move list,
// in the order restarts try them.
type FirstMoveState struct {
	Target int
	Factor uint32
}

// TTState is the transposition table: keys sorted ascending (map order is
// not deterministic; sorting makes encoding canonical) with parallel
// depths, plus the run's probe counters.
type TTState struct {
	Keys      []uint64
	Depths    []int32
	Hits      int64
	Misses    int64
	Evictions int64
}

// State is the complete serializable searcher state. See internal/core's
// export/restore for the exact mapping to a live search.
type State struct {
	// SpecHash is pprm.Spec.Hash of the function being synthesized; resume
	// refuses a snapshot taken for a different function.
	SpecHash uint64
	// OptionsFP fingerprints the decision-shaping synthesis options (see
	// core's fingerprint); budgets (time/step limits) are free to change
	// between segments, everything that shapes the search tree is not.
	OptionsFP uint64
	// Root is the root PPRM expansion (the function under synthesis).
	Root SpecState
	// Nodes holds the root, every queued node, the best solution, and all
	// of their ancestors, in topological order.
	Nodes []NodeState
	// Queued lists indices into Nodes in queue precedence order (highest
	// priority first, FIFO among ties) — the order Pop would drain them.
	Queued []int
	// BestSol is the best solution's index into Nodes, or -1. The best
	// depth is that node's depth and is not stored.
	BestSol int

	Steps             int
	StepsSinceRestart int
	SolSteps          int
	NodesCreated      int
	Restarts          int

	FirstMoves    []FirstMoveState
	NextFirstMove int

	// Elapsed is the cumulative synthesis wall-clock across all segments.
	Elapsed time.Duration
	// PeakBytes is the high-water accounted memory across all segments.
	PeakBytes int64

	// TT is the transposition table; nil when deduplication is off.
	TT *TTState
}

// Encode serializes the state into a complete snapshot file image
// (header + checksummed payload).
func Encode(st *State) []byte {
	var e encoder
	e.u64(st.SpecHash)
	e.u64(st.OptionsFP)
	e.uvarint(uint64(st.Root.N))
	for i := range st.Root.Out {
		ts := &st.Root.Out[i]
		e.uvarint(uint64(ts.Cap))
		e.uvarint(uint64(len(ts.Terms)))
		prev := int64(-1)
		for _, t := range ts.Terms {
			e.uvarint(uint64(int64(t) - prev)) // strictly increasing ⇒ delta ≥ 1
			prev = int64(t)
		}
	}
	e.uvarint(uint64(len(st.Nodes)))
	for i := range st.Nodes {
		n := &st.Nodes[i]
		e.varint(int64(n.Parent))
		e.uvarint(uint64(n.ID))
		e.varint(int64(n.Target))
		e.uvarint(uint64(n.Factor))
		if n.Materialized {
			e.byte(1)
		} else {
			e.byte(0)
		}
	}
	e.uvarint(uint64(len(st.Queued)))
	for _, q := range st.Queued {
		e.uvarint(uint64(q))
	}
	e.varint(int64(st.BestSol))
	e.uvarint(uint64(st.Steps))
	e.uvarint(uint64(st.StepsSinceRestart))
	e.uvarint(uint64(st.SolSteps))
	e.uvarint(uint64(st.NodesCreated))
	e.uvarint(uint64(st.Restarts))
	e.uvarint(uint64(len(st.FirstMoves)))
	for i := range st.FirstMoves {
		fm := &st.FirstMoves[i]
		e.uvarint(uint64(fm.Target))
		e.uvarint(uint64(fm.Factor))
	}
	e.uvarint(uint64(st.NextFirstMove))
	e.uvarint(uint64(st.Elapsed))
	e.uvarint(uint64(st.PeakBytes))
	if st.TT == nil {
		e.byte(0)
	} else {
		e.byte(1)
		e.uvarint(uint64(st.TT.Hits))
		e.uvarint(uint64(st.TT.Misses))
		e.uvarint(uint64(st.TT.Evictions))
		e.uvarint(uint64(len(st.TT.Keys)))
		prev := uint64(0)
		for i, k := range st.TT.Keys {
			if i == 0 {
				e.u64(k)
			} else {
				e.uvarint(k - prev) // sorted ascending, distinct ⇒ delta ≥ 1
			}
			prev = k
		}
		for _, d := range st.TT.Depths {
			e.uvarint(uint64(d))
		}
	}

	payload := e.buf
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// Decode parses a snapshot file image, verifying magic, version, length,
// and checksum, and structurally validating the payload (every count is
// bounds-checked against the remaining bytes before allocation, so a
// corrupted count cannot force a huge allocation). Semantic validation —
// search invariants, spec and options identity — is internal/core's job.
func Decode(data []byte) (*State, error) {
	if len(data) < headerSize || string(data[:len(magic)]) != magic {
		if len(data) >= len(magic) && string(data[:len(magic)]) == magic {
			return nil, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(data))
		}
		return nil, ErrNotSnapshot
	}
	ver := binary.LittleEndian.Uint16(data[len(magic):])
	if ver != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersionSkew, ver, Version)
	}
	plen := binary.LittleEndian.Uint32(data[len(magic)+2:])
	crc := binary.LittleEndian.Uint32(data[len(magic)+6:])
	payload := data[headerSize:]
	if uint32(len(payload)) != plen {
		return nil, fmt.Errorf("%w: payload %d bytes, header says %d", ErrCorrupt, len(payload), plen)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}

	d := &decoder{b: payload}
	st := &State{}
	st.SpecHash = d.u64()
	st.OptionsFP = d.u64()
	st.Root.N = int(d.count(bits.MaxVars, 1))
	st.Root.Out = make([]TermSetState, st.Root.N)
	for i := range st.Root.Out {
		ts := &st.Root.Out[i]
		ts.Cap = int(d.uvarint())
		n := d.count(uint64(len(d.b)), 1)
		ts.Terms = make([]bits.Mask, n)
		prev := int64(-1)
		for j := range ts.Terms {
			v := prev + int64(d.uvarint())
			if v < 0 || v > math.MaxUint32 || v <= prev {
				d.fail("term out of range")
				break
			}
			ts.Terms[j] = bits.Mask(v)
			prev = v
		}
		if ts.Cap < len(ts.Terms) || ts.Cap > len(ts.Terms)+1<<24 {
			d.fail("implausible term capacity")
		}
	}
	nNodes := d.count(uint64(len(d.b)), minNodeBytes)
	st.Nodes = make([]NodeState, nNodes)
	for i := range st.Nodes {
		n := &st.Nodes[i]
		n.Parent = int(d.varint())
		n.ID = int(d.uvarint())
		n.Target = int(d.varint())
		n.Factor = uint32(d.uvarint())
		n.Materialized = d.byte() != 0
	}
	nQueued := d.count(uint64(len(d.b)), 1)
	st.Queued = make([]int, nQueued)
	for i := range st.Queued {
		st.Queued[i] = int(d.uvarint())
	}
	st.BestSol = int(d.varint())
	st.Steps = int(d.uvarint())
	st.StepsSinceRestart = int(d.uvarint())
	st.SolSteps = int(d.uvarint())
	st.NodesCreated = int(d.uvarint())
	st.Restarts = int(d.uvarint())
	nMoves := d.count(uint64(len(d.b)), 2)
	st.FirstMoves = make([]FirstMoveState, nMoves)
	for i := range st.FirstMoves {
		fm := &st.FirstMoves[i]
		fm.Target = int(d.uvarint())
		fm.Factor = uint32(d.uvarint())
	}
	st.NextFirstMove = int(d.uvarint())
	st.Elapsed = time.Duration(d.uvarint())
	st.PeakBytes = int64(d.uvarint())
	if d.byte() != 0 {
		tt := &TTState{}
		tt.Hits = int64(d.uvarint())
		tt.Misses = int64(d.uvarint())
		tt.Evictions = int64(d.uvarint())
		nKeys := d.count(uint64(len(d.b)), 1)
		tt.Keys = make([]uint64, nKeys)
		for i := range tt.Keys {
			if i == 0 {
				tt.Keys[i] = d.u64()
			} else {
				tt.Keys[i] = tt.Keys[i-1] + d.uvarint()
				if tt.Keys[i] <= tt.Keys[i-1] {
					d.fail("transposition keys not increasing")
					break
				}
			}
		}
		tt.Depths = make([]int32, nKeys)
		for i := range tt.Depths {
			tt.Depths[i] = int32(d.uvarint())
		}
		st.TT = tt
	}

	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, d.err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.b))
	}
	return st, nil
}

// minNodeBytes is the smallest possible encoded node (four 1-byte varints
// + flag byte); used to bound the node count a corrupted header can
// request before allocation.
const minNodeBytes = 4 + 1

type encoder struct{ buf []byte }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) u64(v uint64)     { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) byte(v byte)      { e.buf = append(e.buf, v) }

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("short fixed64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("short byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// count reads an element count and rejects values that could not possibly
// fit in the remaining payload (each element needs at least minBytes),
// so a flipped length byte cannot trigger a gigantic allocation.
func (d *decoder) count(limit uint64, minBytes int) uint64 {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > limit || v*uint64(minBytes) > uint64(len(d.b)) {
		d.fail("implausible element count")
		return 0
	}
	return v
}
