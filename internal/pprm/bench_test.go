package pprm

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/perm"
	"repro/internal/rng"
)

// Kernel microbenchmarks on both sides of the word/slice boundary (n ≤ 6 is
// word form). Run with
//
//	go test -run NONE -bench . ./internal/pprm

var benchVars = []int{3, 4, 6, 7, 12}

// benchSpec is a seeded random n-variable spec.
func benchSpec(b *testing.B, n int) (perm.Perm, *Spec) {
	b.Helper()
	p := perm.Random(n, rng.New(uint64(n)))
	s, err := FromPerm(p)
	if err != nil {
		b.Fatal(err)
	}
	return p, s
}

type candidate struct {
	target int
	factor bits.Mask
}

// benchCandidates lists the substitutions the search scores on s: each
// term of output t without v_t, plus the constant factor.
func benchCandidates(s *Spec) []candidate {
	var cs []candidate
	for t := range s.Out {
		cs = append(cs, candidate{t, 0})
		for _, f := range s.Out[t].Sorted() {
			if f != 0 && !bits.Has(f, t) {
				cs = append(cs, candidate{t, f})
			}
		}
	}
	return cs
}

func BenchmarkSubstituteProbe(b *testing.B) {
	for _, n := range benchVars {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, s := benchSpec(b, n)
			cs := benchCandidates(s)
			var scratch []bits.Mask
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cs[i%len(cs)]
				_, _, scratch = s.SubstituteProbe(c.target, c.factor, scratch)
			}
		})
	}
}

// The Prober benchmark's results land here, so no call is optimized away.
var (
	sinkDelta int
	sinkHash  uint64
)

// BenchmarkProber measures the Prober over the same candidates, Load and
// Target included where the candidate list reaches them: delta scores each
// candidate's term change only, as generate does for all of them, and
// delta+hash adds the state hash, as for the ones commit may probe.
func BenchmarkProber(b *testing.B) {
	for _, n := range benchVars {
		for _, hash := range []bool{false, true} {
			name := fmt.Sprintf("n=%d/delta", n)
			if hash {
				name += "+hash"
			}
			b.Run(name, func(b *testing.B) {
				_, s := benchSpec(b, n)
				cs := benchCandidates(s)
				var p Prober
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % len(cs)
					c := cs[k]
					if k == 0 {
						p.Load(s)
					}
					if k == 0 || cs[k-1].target != c.target {
						p.Target(c.target)
					}
					sinkDelta += p.Delta(c.factor)
					if hash {
						sinkHash ^= p.Hash()
					}
				}
			})
		}
	}
}

func BenchmarkSubstituteCopy(b *testing.B) {
	for _, n := range benchVars {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, s := benchSpec(b, n)
			cs := benchCandidates(s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cs[i%len(cs)]
				s.SubstituteCopy(c.target, c.factor)
			}
		})
	}
}

// BenchmarkSorted measures the candidate enumeration's presentation-order
// walk of one output as the search meets it: into a reused buffer.
func BenchmarkSorted(b *testing.B) {
	for _, n := range benchVars {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, s := benchSpec(b, n)
			var buf []bits.Mask
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.Out[i%n].AppendSorted(buf[:0])
			}
		})
	}
}

func BenchmarkFromPerm(b *testing.B) {
	for _, n := range benchVars {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p, _ := benchSpec(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FromPerm(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
