package pprm

import (
	mbits "math/bits"

	"repro/internal/bits"
)

// Prober scores the candidate substitutions of one expansion in two tiers,
// so that a caller pays for the state hash only where it needs it:
//
//	p.Load(spec)        // once per expansion
//	p.Target(t)         // once per target variable
//	d := p.Delta(f)     // every candidate: the term-count change
//	h := p.Hash()       // some: the state hash after the last Delta
//
// Delta(f) equals the delta SubstituteProbe(t, f, …) returns and Hash its
// hash. Load keeps per output the share of Spec.Hash it contributes;
// Target keeps per output the terms holding v_t, with v_t removed (a word
// in word form; in slice form a sorted list, for the outputs that hold v_t
// at all); Delta keeps its toggles, so Hash only hashes them and re-mixes
// the outputs they change. It uses the kernels Substitute and
// SubstituteProbe use.
//
// The loaded Spec must not change while it is loaded. The zero Prober is
// ready to Load; once its buffers have grown, no call allocates. A Prober
// is not safe for concurrent use.
type Prober struct {
	s     *Spec
	word  bool
	mixed []uint64 // per output: mix64(hash + outSalt), its share of Spec.Hash
	hash  uint64   // the loaded Spec's Hash, the XOR of mixed
	// Word form, per output: the coefficient words; the rests (the terms
	// with the target, target removed) and the last Delta's toggles as
	// words, zero for an output without the target; and the negated sum
	// of the words' term counts.
	words, rests, toggles [wordVars]uint64
	pop0                  int
	// Slice form: the outputs holding a term with the target, and for
	// each of them, indexed like touched, the rests and the last Delta's
	// toggles as sorted lists.
	touched       []int
	srests, stogs [][]bits.Mask
}

// Load prepares p for the candidates of s. A Target must follow before
// the next Delta.
func (p *Prober) Load(s *Spec) {
	p.s, p.word = s, UsesWord(s.N)
	if cap(p.mixed) < len(s.Out) {
		p.mixed = make([]uint64, len(s.Out))
	}
	p.mixed = p.mixed[:len(s.Out)]
	p.hash = 0
	for j := range s.Out {
		p.mixed[j] = mix64(s.Out[j].hash + outSalt(j))
		p.hash ^= p.mixed[j]
	}
	if p.word {
		p.pop0 = 0
		for j := range s.Out {
			p.words[j] = s.Out[j].word
			p.pop0 -= mbits.OnesCount64(p.words[j])
		}
	}
}

// Target picks the substitution target variable t for the next Deltas.
func (p *Prober) Target(t int) {
	if p.word {
		for j := range p.s.Out {
			p.rests[j] = wordRests(p.words[j], t)
		}
		return
	}
	p.touched = p.touched[:0]
	tb := bits.Bit(t)
	for j := range p.s.Out {
		k := len(p.touched)
		if k == len(p.srests) {
			p.srests, p.stogs = append(p.srests, nil), append(p.stogs, nil)
		}
		if p.srests[k] = appendToggled(p.srests[k][:0], p.s.Out[j].terms, tb, 0); len(p.srests[k]) > 0 {
			p.touched = append(p.touched, j)
		}
	}
}

// Delta returns the change in term count of v_target = v_target ⊕ f, the
// delta SubstituteProbe returns. f must not hold the target.
func (p *Prober) Delta(f bits.Mask) int {
	if p.word {
		d := p.pop0
		for j := range p.s.Out {
			tw := wordTimes(p.rests[j], f)
			p.toggles[j] = tw
			d += mbits.OnesCount64(p.words[j] ^ tw)
		}
		return d
	}
	d := 0
	for k, j := range p.touched {
		tg := p.stogs[k][:0]
		for _, r := range p.srests[k] {
			tg = append(tg, r|f)
		}
		p.stogs[k] = sortCancel(tg)
		d += mergeDelta(p.s.Out[j].terms, p.stogs[k])
	}
	return d
}

// Hash returns the transposition hash of the expansion the last Delta
// scored, the hash SubstituteProbe returns.
func (p *Prober) Hash() uint64 {
	h := p.hash
	if p.word {
		for j := range p.s.Out {
			if x := wordHashOf(p.toggles[j]); x != 0 {
				h ^= p.mixed[j] ^ mix64((p.s.Out[j].hash^x)+outSalt(j))
			}
		}
		return h
	}
	for k, j := range p.touched {
		if x := keysOf(p.stogs[k]); x != 0 {
			h ^= p.mixed[j] ^ mix64((p.s.Out[j].hash^x)+outSalt(j))
		}
	}
	return h
}
