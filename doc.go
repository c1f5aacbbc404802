// Package rmrls is a Go implementation of RMRLS — the Reed–Muller
// reversible logic synthesizer of Gupta, Agrawal and Jha ("Synthesis of
// Reversible Logic", DATE 2004; journal version "An Algorithm for Synthesis
// of Reversible Logic Circuits", IEEE TCAD 25(11), 2006).
//
// A reversible function of n variables maps each n-bit input assignment to
// a unique n-bit output assignment; it is specified here either as a
// permutation of {0, …, 2^n − 1} or as a positive-polarity Reed–Muller
// (PPRM) expansion. Synthesis produces a cascade of generalized Toffoli
// gates realizing the function:
//
//	spec := rmrls.MustParseSpec("{1, 0, 7, 2, 3, 4, 5, 6}")
//	res, err := rmrls.Synthesize(spec, rmrls.DefaultOptions())
//	if err == nil && res.Found {
//		fmt.Println(res.Circuit) // TOF1(a) TOF3(c,a,b) TOF3(b,a,c)
//	}
//
// The package also exposes the building blocks a downstream user needs:
// truth-table embedding of irreversible functions (Embed), the benchmark
// suite of the paper (Benchmarks, BenchmarkByName), the
// transformation-based baseline of Miller–Maslov–Dueck (SynthesizeMMD),
// provably optimal 3-variable synthesis (OptimalDistances), and
// quantum-cost accounting. The PPRM expansion comes from an exact
// Reed–Muller (Möbius) transform (PPRMOf); the expansion is canonical, so
// this gives the same synthesis input as the paper's EXORCISM-4 route.
//
// # Which doc do I read?
//
//	the algorithm itself            docs/ALGORITHM.md
//	design choices + inventory      DESIGN.md
//	search performance, dedup       docs/PERFORMANCE.md
//	long runs, checkpoint/resume    docs/OPERATIONS.md
//	live metrics, expvar/pprof      docs/OBSERVABILITY.md
//	the rmrlsd HTTP service         docs/SERVICE.md
//	the verification gate           docs/VERIFICATION.md
//	canonical forms + answer cache  docs/CACHING.md
//	paper-vs-measured numbers       EXPERIMENTS.md
//
// See the README's documentation index for one-line summaries of each.
package rmrls
