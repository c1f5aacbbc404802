// Differential and metamorphic fuzz targets for the verification oracle.
// External test package: these targets drive the real synthesis engine
// (internal/core) and the transformation-based baseline (internal/mmd)
// against the oracle, which the in-package tests cannot do without an
// import cycle (core imports verify).
//
// `go test` exercises the seed corpus; CI runs a short `-fuzz` smoke on
// each target; `go test -fuzz=FuzzVerifyX` explores further locally.
package verify_test

import (
	"testing"

	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/mmd"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
	"repro/internal/tt"
	"repro/internal/verify"
)

// fuzzOptions is a deliberately small budget: fuzzing wants many cheap
// iterations, and an unsolved sample is simply skipped.
func fuzzOptions() core.Options {
	opts := core.DefaultOptions()
	opts.FirstSolution = true
	opts.TotalSteps = 20000
	return opts
}

// FuzzVerifySynthesizeRandomPerm: every circuit the engine hands back for a
// random permutation must pass the independent gate (Result.Verified) and
// re-simulate to exactly that permutation.
func FuzzVerifySynthesizeRandomPerm(f *testing.F) {
	f.Add(3, uint64(1))
	f.Add(4, uint64(7))
	f.Add(5, uint64(42))
	f.Fuzz(func(t *testing.T, n int, seed uint64) {
		if n < 1 || n > 5 {
			return
		}
		p := perm.Random(n, rng.New(seed))
		res, err := core.SynthesizePerm(p, fuzzOptions())
		if err != nil {
			t.Fatalf("SynthesizePerm(%v): %v", p, err)
		}
		if !res.Found {
			return
		}
		if !res.Verified {
			t.Fatalf("engine returned an unverified circuit for %d vars seed %d", n, seed)
		}
		if err := verify.Circuit(verify.StageSearch, res.Circuit, p); err != nil {
			t.Fatalf("independent re-check rejected the engine's circuit: %v", err)
		}
	})
}

// FuzzVerifyPLA: embed a random incompletely-specified function, synthesize
// the embedding, and check the circuit against the original partial table on
// every cared bit — the end-to-end PLA path with the don't-care-aware check.
func FuzzVerifyPLA(f *testing.F) {
	f.Add(2, 2, uint64(1))
	f.Add(3, 1, uint64(9))
	f.Add(3, 2, uint64(5))
	f.Fuzz(func(t *testing.T, inputs, outputs int, seed uint64) {
		if inputs < 1 || inputs > 3 || outputs < 1 || outputs > 3 {
			return
		}
		src := rng.New(seed)
		size := 1 << uint(inputs)
		outMask := uint32(1)<<uint(outputs) - 1
		pt := &tt.PartialTable{Inputs: inputs, Outputs: outputs,
			Rows: make([]uint32, size), Care: make([]uint32, size)}
		for x := 0; x < size; x++ {
			pt.Care[x] = uint32(src.Uint64()) & outMask
			pt.Rows[x] = uint32(src.Uint64()) & pt.Care[x]
		}
		if err := pt.Validate(); err != nil {
			t.Fatalf("generated an invalid partial table: %v", err)
		}
		emb, _, err := tt.EmbedPartial(pt, 4, seed)
		if err != nil {
			t.Fatalf("EmbedPartial: %v", err)
		}
		spec, err := pprm.FromPerm(perm.Perm(emb.Spec))
		if err != nil {
			t.Fatalf("FromPerm on embedding: %v", err)
		}
		res := core.Synthesize(spec, fuzzOptions())
		if !res.Found {
			return
		}
		if !res.Verified {
			t.Fatalf("engine returned an unverified circuit for the embedding")
		}
		if err := verify.PLA(verify.StageEmbed, res.Circuit, emb, pt); err != nil {
			t.Fatalf("circuit violates a cared bit of the source PLA: %v", err)
		}
	})
}

// FuzzVerifyRelabelMetamorphic pins the identity every derived cache hit
// relies on: conjugating a cascade by a transform (wire renaming plus a
// NOT sandwich for the polarity) realizes the conjugated permutation,
//
//	Simulate(t.ConjugateCircuit(c)) == t.Conjugate(Simulate(c)),
//
// checked by the oracle's own simulator rather than Circuit.Perm.
func FuzzVerifyRelabelMetamorphic(f *testing.F) {
	f.Add(3, 5, uint64(1), uint64(2), uint32(5))
	f.Add(4, 8, uint64(3), uint64(4), uint32(0))
	f.Add(5, 12, uint64(5), uint64(6), uint32(19))
	f.Fuzz(func(t *testing.T, n, gates int, circuitSeed, mapSeed uint64, polarity uint32) {
		if n < 1 || n > 6 || gates < 1 || gates > 20 {
			return
		}
		c := circuit.Random(n, gates, circuit.GT, rng.New(circuitSeed))
		tr := canon.Transform{Wires: rng.New(mapSeed).Perm(n), Polarity: polarity & (1<<uint(n) - 1)}

		tc, err := tr.ConjugateCircuit(c)
		if err != nil {
			t.Fatalf("ConjugateCircuit(%v): %v", tr, err)
		}
		p, verr := verify.Simulate(verify.StageSearch, c)
		if verr != nil {
			t.Fatalf("Simulate(original): %v", verr)
		}
		got, verr := verify.Simulate(verify.StageSearch, tc)
		if verr != nil {
			t.Fatalf("Simulate(conjugated): %v", verr)
		}
		if want := tr.Conjugate(p); !got.Equal(want) {
			t.Fatalf("conjugated cascade realizes %v, conjugated permutation is %v (transform %v)", got, want, tr)
		}
	})
}

// FuzzVerifyMMDDifferential: two independent synthesizers (RMRLS search and
// the MMD transformation baseline) must both produce circuits the oracle
// accepts for the same random function — a differential check with no shared
// synthesis code between the two producers.
func FuzzVerifyMMDDifferential(f *testing.F) {
	f.Add(3, uint64(1))
	f.Add(4, uint64(11))
	f.Add(5, uint64(23))
	f.Fuzz(func(t *testing.T, n int, seed uint64) {
		if n < 1 || n > 5 {
			return
		}
		p := perm.Random(n, rng.New(seed))
		uni := mmd.Synthesize(p, mmd.Unidirectional)
		if err := verify.Circuit(verify.StageSearch, uni, p); err != nil {
			t.Fatalf("oracle rejects the unidirectional MMD circuit: %v", err)
		}
		bi := mmd.Synthesize(p, mmd.Bidirectional)
		if err := verify.Circuit(verify.StageSearch, bi, p); err != nil {
			t.Fatalf("oracle rejects the bidirectional MMD circuit: %v", err)
		}
		res, err := core.SynthesizePerm(p, fuzzOptions())
		if err != nil {
			t.Fatalf("SynthesizePerm(%v): %v", p, err)
		}
		if !res.Found {
			return
		}
		// Both producers solved the same function: their circuits must
		// realize the same permutation even though they share no code.
		rmrlsPerm, verr := verify.Simulate(verify.StageSearch, res.Circuit)
		if verr != nil {
			t.Fatalf("Simulate(rmrls circuit): %v", verr)
		}
		mmdPerm, verr := verify.Simulate(verify.StageSearch, uni)
		if verr != nil {
			t.Fatalf("Simulate(mmd circuit): %v", verr)
		}
		if !rmrlsPerm.Equal(mmdPerm) {
			t.Fatalf("rmrls and mmd disagree on seed %d: %v vs %v", seed, rmrlsPerm, mmdPerm)
		}
	})
}
