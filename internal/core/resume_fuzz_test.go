package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/verify"
)

// resumeSeed is one real checkpoint for FuzzResume: the function and
// options of the run that took it, its encoded image, and the encoded
// final state of the uninterrupted run, which an unmutated resume must
// reproduce byte for byte.
type resumeSeed struct {
	where string
	p     perm.Perm
	spec  *pprm.Spec
	opts  Options
	data  []byte
	final []byte
}

// resumeFuzzEnd is the step budget of the seed runs.
const resumeFuzzEnd = 300

// resumeFuzzSteps bounds a mutated resume, whose counters may claim any
// step count.
const resumeFuzzSteps = 200

// encodeAt exports s at a round boundary with the wall-clock field zeroed,
// so that equal search states encode to equal bytes.
func encodeAt(s *searcher) []byte {
	st := s.exportState()
	st.Elapsed = 0
	return snapshot.Encode(st)
}

// resumeSeeds takes checkpoints at several round boundaries of Table I and
// worked-example searches and of a 9-wire random cascade, whose
// expansions are slice-form runs, at workers 0 and 4.
func resumeSeeds(tb testing.TB) []resumeSeed {
	type function struct {
		name string
		p    perm.Perm
		spec *pprm.Spec
	}
	var fns []function
	for _, name := range []string{"fredkin", "shiftright", "swap4"} {
		p := testPerms[name]
		spec, err := pprm.FromPerm(p)
		if err != nil {
			tb.Fatal(err)
		}
		fns = append(fns, function{name, p, spec})
	}
	wide := circuit.Random(9, 12, circuit.GT, rng.New(3))
	fns = append(fns, function{"cascade9", wide.Perm(), wide.PPRM()})
	var seeds []resumeSeed
	for _, fn := range fns {
		name, p, spec := fn.name, fn.p, fn.spec
		for _, workers := range []int{0, 4} {
			opts := resumeTestOptions()
			opts.MaxSteps = 50 // restarts fall inside a resumed run's budget
			opts.Workers = workers
			opts.TotalSteps = resumeFuzzEnd
			s := newSearcher(spec, opts)
			var taken []resumeSeed
			rounds := 0
			s.stepHook = func(s *searcher) {
				rounds++
				switch rounds {
				case 2, 3, 6, 40:
					taken = append(taken, resumeSeed{
						where: fmt.Sprintf("%s workers=%d round %d", name, workers, rounds),
						p:     p, spec: spec, opts: opts, data: encodeAt(s),
					})
				}
			}
			s.run()
			final := encodeAt(s)
			for i := range taken {
				taken[i].final = final
			}
			seeds = append(seeds, taken...)
		}
	}
	return seeds
}

// mutateResume applies structure-aware mutation op to st: every field the
// format stores, addressed by at and set from val. Op 0 leaves st as is.
func mutateResume(st *snapshot.State, op uint8, at int, val uint64) {
	pick := func(n int) int { return at % max(n, 1) }
	index := func(n int) int { return int(val%uint64(n+2)) - 1 } // −1 … n
	bit := uint32(1) << (val % 6)
	node := &st.Nodes[pick(len(st.Nodes))]
	switch op {
	case 1:
		node.Parent = index(len(st.Nodes))
	case 2:
		node.Target = index(st.Root.N)
	case 3:
		node.Factor ^= bit
	case 4:
		node.Materialized = !node.Materialized
	case 5:
		node.ID = int(val % 1024)
	case 6:
		// Delete a node, renumbering every later reference.
		k := pick(len(st.Nodes))
		st.Nodes = append(st.Nodes[:k], st.Nodes[k+1:]...)
		shift := func(i *int) {
			if *i > k {
				*i--
			}
		}
		for i := range st.Nodes {
			shift(&st.Nodes[i].Parent)
		}
		for i := range st.Queued {
			shift(&st.Queued[i])
		}
		shift(&st.BestSol)
	case 7:
		if len(st.Queued) > 0 {
			st.Queued[pick(len(st.Queued))] = index(len(st.Nodes))
		}
	case 8:
		if len(st.Queued) > 0 {
			k := pick(len(st.Queued))
			st.Queued = append(st.Queued[:k], st.Queued[k+1:]...)
		}
	case 9:
		if len(st.Queued) > 0 {
			i, j := pick(len(st.Queued)), int(val%uint64(len(st.Queued)))
			st.Queued[i], st.Queued[j] = st.Queued[j], st.Queued[i]
		}
	case 10:
		st.Queued = append(st.Queued, index(len(st.Nodes)))
	case 11:
		st.BestSol = index(len(st.Nodes))
	case 12:
		if len(st.FirstMoves) > 0 {
			fm := &st.FirstMoves[pick(len(st.FirstMoves))]
			if val&1 == 0 {
				fm.Target = index(st.Root.N)
			} else {
				fm.Factor ^= bit
			}
		}
	case 13:
		if len(st.FirstMoves) > 0 {
			k := pick(len(st.FirstMoves))
			st.FirstMoves = append(st.FirstMoves[:k], st.FirstMoves[k+1:]...)
		}
	case 14:
		st.NextFirstMove = index(len(st.FirstMoves))
	case 15:
		v := int(int16(val))
		switch at % 5 {
		case 0:
			st.Steps = v
		case 1:
			st.StepsSinceRestart = v
		case 2:
			st.SolSteps = v
		case 3:
			st.NodesCreated = v
		case 4:
			st.Restarts = v
		}
	case 16:
		if tt := st.TT; tt != nil && len(tt.Keys) > 0 {
			k := pick(len(tt.Keys))
			if val&1 == 0 {
				tt.Keys[k] ^= val
			} else {
				tt.Depths[k] = int32(int8(val >> 8))
			}
		}
	case 17:
		st.TT = nil
	case 18:
		st.PeakBytes = int64(val)
	}
}

// resumeFuzzOps is the number of structure-aware ops; op values at or above
// it mutate the encoded payload instead.
const resumeFuzzOps = 19

// mutateRaw XORs raw into the payload of an encoded snapshot starting at
// byte at, then re-seals the checksum, so the damage reaches Decode's
// structural checks instead of stopping at the CRC.
func mutateRaw(data []byte, at int, raw []byte) []byte {
	const header = 16 // magic, version, length, CRC
	out := bytes.Clone(data)
	payload := out[header:]
	for i, b := range raw {
		payload[(at+i)%len(payload)] ^= b
	}
	binary.LittleEndian.PutUint32(out[12:], crc32.ChecksumIEEE(payload))
	return out
}

// FuzzResume mutates real checkpoints and requires restore to return a
// typed error, or the resumed run to pass roundInvariants and checkArena at
// every round boundary and return only circuits that verify.Circuit
// accepts. An unmutated checkpoint must resume to the uninterrupted run's
// final state, byte for byte.
func FuzzResume(f *testing.F) {
	seeds := resumeSeeds(f)
	for i := range seeds {
		f.Add(uint8(i), uint8(0), uint16(0), uint64(0), []byte(nil))
	}
	for op := 1; op < resumeFuzzOps+2; op++ {
		f.Add(uint8(op*5), uint8(op), uint16(op*7), uint64(op*13), []byte{byte(op), 0x80})
	}
	f.Fuzz(func(t *testing.T, seedIdx uint8, op uint8, at uint16, val uint64, raw []byte) {
		seed := &seeds[int(seedIdx)%len(seeds)]
		data := seed.data
		if op >= resumeFuzzOps {
			data = mutateRaw(data, int(at), raw)
		}
		st, err := snapshot.Decode(data)
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrVersionSkew) &&
				!errors.Is(err, snapshot.ErrNotSnapshot) {
				t.Fatalf("%s: untyped decode error %v", seed.where, err)
			}
			return
		}
		if op < resumeFuzzOps {
			mutateResume(st, op, int(at), val)
		}
		s, err := restoreSearcher(seed.spec, seed.opts, st)
		if err != nil {
			if !errors.Is(err, ErrInvalidState) && !errors.Is(err, ErrSpecMismatch) && !errors.Is(err, ErrOptionsMismatch) {
				t.Fatalf("%s: untyped restore error %v", seed.where, err)
			}
			return
		}
		if op != 0 {
			s.opts.TotalSteps = s.steps + min(resumeFuzzSteps, math.MaxInt-s.steps)
		}
		where := fmt.Sprintf("%s op %d", seed.where, op)
		check := roundInvariants(t, where)
		s.stepHook = func(s *searcher) {
			check(s)
			checkArena(t, s, where)
		}
		res := s.run()
		if res.Err != nil {
			t.Fatalf("%s: resumed run failed: %v", where, res.Err)
		}
		if res.Found {
			if err := verify.Circuit(verify.StageSearch, res.Circuit, seed.p); err != nil {
				t.Fatalf("%s: resumed circuit fails verification: %v", where, err)
			}
		}
		if op == 0 && !bytes.Equal(encodeAt(s), seed.final) {
			t.Fatalf("%s: unmutated resume diverged from the uninterrupted run", where)
		}
	})
}
