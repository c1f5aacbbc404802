package rmrls

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fredkin"
	"repro/internal/mmd"
	"repro/internal/optimal"
	"repro/internal/peephole"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/tt"
	"repro/internal/verify"
)

// Re-exported core types. The facade keeps downstream users on one import
// path while the implementation lives in focused internal packages.
type (
	// Perm is a reversible function as a permutation of {0,…,2^n−1}.
	Perm = perm.Perm
	// Spec is a positive-polarity Reed–Muller expansion.
	Spec = pprm.Spec
	// Circuit is a cascade of generalized Toffoli gates.
	Circuit = circuit.Circuit
	// Gate is a single generalized Toffoli gate.
	Gate = circuit.Gate
	// Options configures the RMRLS search.
	Options = core.Options
	// Checkpoint configures durable crash-safe snapshots of a running
	// search (Options.Checkpoint); see ResumeSpecContext.
	Checkpoint = core.Checkpoint
	// Result is a synthesis outcome.
	Result = core.Result
	// StopReason records why a synthesis run returned (solved, canceled,
	// budget exhausted, …); see the Stop* constants.
	StopReason = core.StopReason
	// Event is one step of the search trace.
	Event = core.Event
	// TruthTable is a (possibly irreversible) multi-output function.
	TruthTable = tt.Table
	// Embedding is a reversible lifting of an irreversible function.
	Embedding = tt.Embedding
	// Benchmark is one entry of the paper's benchmark suite.
	Benchmark = bench.Benchmark
	// Cache is the canonical-form answer cache (Options.Cache): solved
	// classes answer repeated or relabeled requests by conjugation
	// instead of a search. See docs/CACHING.md.
	Cache = cache.Cache
	// CacheStats is a snapshot of a Cache's counters.
	CacheStats = cache.Stats
)

// Admission modes (see core.Admission).
const (
	AdmitBounded    = core.AdmitBounded
	AdmitAll        = core.AdmitAll
	AdmitCumulative = core.AdmitCumulative
	AdmitPerStep    = core.AdmitPerStep
)

// Gate libraries.
const (
	GT  = circuit.GT
	NCT = circuit.NCT
)

// Stop reasons (see core.StopReason). Every completed run reports one;
// a non-Found Result is diagnosable by inspecting it.
const (
	StopNone              = core.StopNone
	StopSolved            = core.StopSolved
	StopQueueExhausted    = core.StopQueueExhausted
	StopDeadline          = core.StopDeadline
	StopCanceled          = core.StopCanceled
	StopStepLimit         = core.StopStepLimit
	StopMemoryLimit       = core.StopMemoryLimit
	StopRestartsExhausted = core.StopRestartsExhausted
	StopInternalError     = core.StopInternalError
	StopVerifyFailed      = core.StopVerifyFailed
)

// VerifyError is the typed failure of the always-on post-synthesis
// verification gate: the search produced a circuit that an independent
// simulator rejected. A Result carrying one has Found == false and
// StopReason == StopVerifyFailed; unwrap it with errors.As to recover the
// rejected cascade and the first mismatching input. Disable the gate with
// Options.SkipVerify (functions wider than verify.MaxVars skip it
// automatically and report Result.Verified == false).
type VerifyError = verify.Error

// DefaultOptions returns the recommended synthesis configuration (greedy
// pruning, additional substitutions, restarts).
func DefaultOptions() Options { return core.DefaultOptions() }

// BasicOptions returns the paper's basic algorithm without heuristics.
func BasicOptions() Options { return core.BasicOptions() }

// Synthesize runs RMRLS on a reversible function given as a permutation.
func Synthesize(p Perm, opts Options) (Result, error) {
	return core.SynthesizePerm(p, opts)
}

// SynthesizeContext is Synthesize with cancellation: the search polls
// ctx.Done() alongside its deadline, and a canceled run returns promptly
// with the best-so-far circuit and StopReason == StopCanceled.
func SynthesizeContext(ctx context.Context, p Perm, opts Options) (Result, error) {
	return core.SynthesizePermContext(ctx, p, opts)
}

// SynthesizeSpec runs RMRLS on a PPRM expansion directly; required for
// functions too wide to tabulate (e.g. the 30-wire shift28 benchmark).
func SynthesizeSpec(s *Spec, opts Options) Result {
	return core.Synthesize(s, opts)
}

// SynthesizeSpecContext is SynthesizeSpec with cancellation.
func SynthesizeSpecContext(ctx context.Context, s *Spec, opts Options) Result {
	return core.SynthesizeContext(ctx, s, opts)
}

// Typed resume errors (see ResumeSpecContext). Every one of them means
// "start fresh", never "fail the job".
var (
	ErrSpecMismatch    = core.ErrSpecMismatch
	ErrOptionsMismatch = core.ErrOptionsMismatch
	ErrInvalidState    = core.ErrInvalidState
)

// ResumeContext continues a checkpointed synthesis of the function p from
// the snapshot at path, exactly where it left off; see Options.Checkpoint
// for how snapshots are written. Budget options (time and step limits) may
// differ from the original run's; everything that shapes the search must
// fingerprint-match or ErrOptionsMismatch is returned.
func ResumeContext(ctx context.Context, p Perm, opts Options, path string) (Result, error) {
	return core.ResumePermContext(ctx, p, opts, path)
}

// ResumeSpecContext is ResumeContext for a PPRM expansion.
func ResumeSpecContext(ctx context.Context, s *Spec, opts Options, path string) (Result, error) {
	return core.ResumeContext(ctx, s, opts, path)
}

// Verify checks that a circuit realizes the function p by independent
// simulation. A mismatch, a nil circuit or a width beyond the oracle's
// 20-variable limit is reported as a *VerifyError.
func Verify(c *Circuit, p Perm) error { return verify.Circuit(verify.StageClient, c, p) }

// NewCache returns a memory-only answer cache for Options.Cache.
func NewCache() *Cache { return cache.New() }

// OpenCache returns an answer cache persisted under dir (created if
// needed), so solved classes survive process restarts. An empty dir is
// memory-only.
func OpenCache(dir string) (*Cache, error) { return cache.Open(dir, nil) }

// CanonicalClass returns the canonical-form class hash of a reversible
// function. For n ≤ 5, two functions share it exactly when one is the
// other with inputs/outputs relabeled and polarities flipped. Above that,
// the hash names the function itself, so only an exact repeat shares it.
func CanonicalClass(p Perm) (uint64, error) {
	rep, _, err := canon.Canonicalize(p)
	if err != nil {
		return 0, err
	}
	return canon.Hash(rep), nil
}

// ParseSpec parses a permutation specification in the paper's notation,
// e.g. "{1, 0, 7, 2, 3, 4, 5, 6}".
func ParseSpec(s string) (Perm, error) { return perm.Parse(s) }

// MustParseSpec is ParseSpec that panics on error, for fixed literals.
func MustParseSpec(s string) Perm {
	p, err := perm.Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePPRM parses an n-variable PPRM expansion, one output per line, e.g.
// "a' = a ^ 1\nb' = b ^ c ^ ac\nc' = b ^ ab ^ ac".
func ParsePPRM(n int, text string) (*Spec, error) { return pprm.Parse(n, text) }

// PPRMOf returns the canonical PPRM expansion of a reversible function.
func PPRMOf(p Perm) (*Spec, error) { return pprm.FromPerm(p) }

// ParseCircuit parses a cascade in the paper's notation on n wires, e.g.
// "TOF1(a) TOF3(c,a,b)".
func ParseCircuit(n int, s string) (*Circuit, error) { return circuit.Parse(n, s) }

// Embed converts an irreversible truth table into a reversible
// specification by adding garbage outputs and constant inputs
// (Section II-A of the paper).
func Embed(t *TruthTable) (*Embedding, error) { return tt.Embed(t) }

// SynthesizeMMD runs the transformation-based baseline of Miller, Maslov
// and Dueck (DAC 2003) — constructive, always succeeds. bidirectional
// selects the stronger two-sided variant.
func SynthesizeMMD(p Perm, bidirectional bool) *Circuit {
	dir := mmd.Unidirectional
	if bidirectional {
		dir = mmd.Bidirectional
	}
	return mmd.Synthesize(p, dir)
}

// OptimalDistances computes, by breadth-first search, the provably minimal
// gate count of every 3-variable reversible function over NOT+CNOT+Toffoli
// (withSwap adds the SWAP gate). Lookup individual functions with
// OptimalGateCount.
func OptimalDistances(withSwap bool) *optimal.Table {
	lib := optimal.NCT
	if withSwap {
		lib = optimal.NCTS
	}
	return optimal.Distances(lib)
}

// Benchmarks returns the paper's benchmark suite (Table IV plus the worked
// examples of Section V-C).
func Benchmarks() []*Benchmark { return bench.All() }

// BenchmarkByName looks up one benchmark, e.g. "rd53" or "shift10".
func BenchmarkByName(name string) (*Benchmark, error) { return bench.ByName(name) }

// QuantumCost returns the quantum cost of a gate of the given size on a
// circuit of the given width, per the paper's Section II-D cost model.
func QuantumCost(gateSize, wires int) int { return circuit.GateCost(gateSize, wires) }

// SynthesizeIterative improves a result by iterative tightening: repeated
// re-searches bounded strictly below the best known size.
func SynthesizeIterative(s *Spec, opts Options, rounds int) Result {
	return core.SynthesizeIterative(s, opts, rounds)
}

// SynthesizeIterativeContext is SynthesizeIterative with cancellation.
func SynthesizeIterativeContext(ctx context.Context, s *Spec, opts Options, rounds int) Result {
	return core.SynthesizeIterativeContext(ctx, s, opts, rounds)
}

// SynthesizePortfolio runs complementary search configurations in
// parallel, then tightening; the most robust entry point for hard
// benchmark functions. The merged result is deterministic under
// deterministic budgets regardless of goroutine scheduling.
func SynthesizePortfolio(s *Spec, opts Options, rounds int) Result {
	return core.SynthesizePortfolio(s, opts, rounds)
}

// SynthesizePortfolioContext is SynthesizePortfolio with cancellation:
// canceling ctx stops every configuration and returns the best circuit
// found so far.
func SynthesizePortfolioContext(ctx context.Context, s *Spec, opts Options, rounds int) Result {
	return core.SynthesizePortfolioContext(ctx, s, opts, rounds)
}

// PeepholeOptimizer performs local window resynthesis against provably
// minimal realizations (the scalable-simplification idea of the paper's
// reference [17]). Construct once (it builds the exhaustive 3-variable
// table) and reuse.
type PeepholeOptimizer = peephole.Optimizer

// NewPeepholeOptimizer builds a window optimizer.
func NewPeepholeOptimizer() *PeepholeOptimizer { return peephole.New() }

// DecomposeNCT expands every generalized Toffoli gate of a cascade into
// the NCT library (NOT, CNOT, 3-bit Toffoli) using Barenco-style
// borrowed-ancilla constructions. It fails with an error if some gate
// touches every wire (parity obstruction; widen the circuit first).
func DecomposeNCT(c *Circuit) (*Circuit, error) { return decomp.DecomposeCircuit(c) }

// MixedCascade is a cascade mixing Toffoli and generalized Fredkin gates
// (the paper's future-work extension).
type MixedCascade = fredkin.Cascade

// RecognizeFredkin rewrites swap-shaped Toffoli triples into Fredkin
// gates, shortening the cascade without changing its function.
func RecognizeFredkin(c *Circuit) *MixedCascade { return fredkin.Recognize(c) }

// RandomCircuit generates a random Toffoli cascade the way the paper's
// scalability experiments do (Section V-E); nct restricts the library.
// The seed makes workloads reproducible.
func RandomCircuit(wires, gates int, nct bool, seed uint64) (*Circuit, error) {
	if wires < 1 || wires > 30 {
		return nil, fmt.Errorf("rmrls: unsupported wire count %d", wires)
	}
	lib := circuit.GT
	if nct {
		lib = circuit.NCT
	}
	return randomCircuit(wires, gates, lib, seed), nil
}
