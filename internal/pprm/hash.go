package pprm

import (
	mbits "math/bits"

	"repro/internal/bits"
)

// State hashing for the synthesis search's transposition table.
//
// Every TermSet carries a 64-bit hash equal to the XOR of termHash over its
// members. XOR makes the hash incremental: toggling a term's membership —
// the only way a set ever changes — updates the hash with one XOR,
// regardless of set size. A Spec's hash combines the per-output hashes
// through a position-dependent finalizer (see Spec.Hash), so permuting
// expansions across outputs changes the hash.
//
// The scheme is the Zobrist hashing of game-tree search specialized to
// EXOR term sets: collisions are possible in principle (two distinct
// states sharing all 64 bits) but occur with probability ≈ m²/2⁶⁵ for m
// distinct states visited — negligible against the search's own
// heuristic pruning. The synthesis results on the paper's examples are
// verified by simulation either way.

// goldenGamma is the splitmix64 increment (2^64 / φ, odd).
const goldenGamma = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// termHash maps a product-term mask to its Zobrist key. The offset keeps
// the constant term (mask 0) away from the all-zero key, so inserting it
// changes the set hash like any other term.
func termHash(t bits.Mask) uint64 {
	return mix64(uint64(t) + goldenGamma)
}

// outSalt decorrelates identical expansions on different outputs: the
// per-output hash is passed through mix64 together with a Weyl-sequence
// salt before being folded into the Spec hash.
func outSalt(i int) uint64 {
	return goldenGamma * uint64(i+1)
}

// Hash returns the 64-bit transposition hash of the set: the XOR of the
// Zobrist keys of its terms. Equal sets always hash equally; the converse
// holds up to 64-bit collisions.
func (ts *TermSet) Hash() uint64 { return ts.hash }

// Hash returns the transposition hash of the whole expansion. It is a
// function of the multiset {(output index, term set)}: two Specs hash
// equally iff every output's expansion matches (up to 64-bit collisions).
// The per-output hashes are maintained incrementally, so this costs one
// mix per output.
func (s *Spec) Hash() uint64 {
	var h uint64
	for i := range s.Out {
		h ^= mix64(s.Out[i].hash + outSalt(i))
	}
	return h
}

// SubstituteProbe computes, without modifying or copying the Spec, the
// term-count change and the transposition hash of the expansion that
// Substitute(target, factor) would produce. The synthesis search uses it
// to hash a single child of a stored expansion (a queued leaf that a prune
// forgets or a table reset records again, a restored one); to score all
// the candidates of an expansion it uses a Prober, which shares its
// kernels. scratch is an
// optional reusable buffer, returned (possibly grown) for the next call;
// word-form outputs never touch it, so on a Spec with N ≤ 6 the probe is
// a few word operations per output and allocates nothing.
func (s *Spec) SubstituteProbe(target int, factor bits.Mask, scratch []bits.Mask) (delta int, hash uint64, out []bits.Mask) {
	tb := bits.Bit(target)
	for j := range s.Out {
		ts := &s.Out[j]
		var d int
		var h uint64
		if ts.isWord {
			// substituteWord without building the set, as the Prober's
			// word kernel does; the search's hot loop is the Prober's.
			tw := wordToggles(ts.word, target, factor)
			w := ts.word ^ tw
			d = mbits.OnesCount64(w) - mbits.OnesCount64(ts.word)
			h = ts.hash ^ wordHashOf(tw)
		} else {
			d, h = ts.probeSlice(tb, factor, &scratch)
		}
		delta += d
		hash ^= mix64(h + outSalt(j))
	}
	return delta, hash, scratch
}
