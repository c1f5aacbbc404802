// Package verify is the independent correctness gate for synthesized
// cascades: it re-simulates a circuit gate by gate and compares the realized
// permutation against the source specification, sharing no evaluation code
// with the PPRM search path (no Gate.Apply, no Circuit.Perm, no Spec.Eval).
// A shared bug between producer and checker would make the check vacuous, so
// the oracle re-derives everything from the data structures alone: gate
// semantics from the Target/Controls fields, the specified function from the
// raw PPRM term sets via an independent subset-XOR transform, and PLA
// conformance from the partial table's care masks.
//
// The package also attributes failures to pipeline stages: Transform checks
// that an optimizer or lowering pass (peephole, template, decomp) preserved
// the permutation its input realized, so a mismatch names the stage that
// introduced it rather than just "the output is wrong".
//
// Everything here is exact tabulation over 2^n inputs and is therefore
// bounded by MaxVars; Feasible tells callers when the gate applies. See
// docs/VERIFICATION.md.
package verify

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/tt"
)

// MaxVars is the widest function the oracle tabulates, comfortably above
// every benchmark the engine verifies today. The cost doubles with each
// wire: on a shared 2-core Xeon virtual machine one Spec check of a
// 10-gate cascade took 15–23 ms and 640 KiB at 16 wires, and 0.39–0.58 s
// and 10 MiB at 20 wires (BenchmarkSpec:
// go test -run '^$' -bench Spec -benchmem ./internal/verify).
// Wider circuits skip the gate (Result.Verified stays false — unchecked,
// not wrong).
const MaxVars = 20

// Feasible reports whether an n-wire function is narrow enough for exact
// tabulated verification.
func Feasible(n int) bool { return n >= 1 && n <= MaxVars }

// Stage names the pipeline stage a verification failure is attributed to.
type Stage string

const (
	// StageSearch: the cascade handed back by the synthesis search itself.
	StageSearch Stage = "search"
	// StageSimplify: the algebraic cancellation pass (Circuit.Simplify).
	StageSimplify Stage = "simplify"
	// StagePeephole: the peephole window-resynthesis optimizer.
	StagePeephole Stage = "peephole"
	// StageTemplate: template-based rewriting (reserved for the template
	// pass; every transform entry point must name itself).
	StageTemplate Stage = "template"
	// StageDecomp: Toffoli lowering into the NCT library (internal/decomp).
	StageDecomp Stage = "decomp"
	// StageClient: a client-side re-check of a served result (loadgen).
	StageClient Stage = "client"
	// StageCache: a circuit derived from the answer cache by conjugating
	// a stored cascade with a relabeling/polarity transform
	// (internal/cache). Every cache hit passes this gate before it is
	// returned, so a poisoned or mis-derived entry surfaces as a miss,
	// never as a wrong circuit.
	StageCache Stage = "cache"
	// StageEmbed: the don't-care-aware check of an embedded PLA result
	// against the original partial specification.
	StageEmbed Stage = "embedding"
)

// Error is a verification failure: the realized cascade does not match what
// the named stage was supposed to produce. It carries the first mismatching
// input and the offending cascade in parseable form, so a quarantined
// artifact is enough to reproduce the mismatch offline.
type Error struct {
	// Stage is the pipeline stage the mismatch is attributed to.
	Stage Stage
	// Wires is the cascade width.
	Wires int
	// Input is the first input value whose image is wrong.
	Input uint32
	// Got is the cascade's output for Input; Want is the specified one.
	// For a don't-care (PLA) check both are masked to the cared bits.
	Got, Want uint32
	// Circuit is the rejected cascade in circuit.Parse form ("(identity)"
	// for the empty cascade), preserved for quarantine and offline triage.
	Circuit string
	// Detail overrides the default message for structural failures (bad
	// gate, non-bijective image, width mismatch).
	Detail string
}

func (e *Error) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("verify: stage %s: %s", e.Stage, e.Detail)
	}
	return fmt.Sprintf("verify: stage %s: circuit on %d wires maps input %d to %d, specification wants %d",
		e.Stage, e.Wires, e.Input, e.Got, e.Want)
}

// structural builds an Error for a failure that has no single mismatching
// input (invalid gate, repeated output, width mismatch).
func structural(stage Stage, c *circuit.Circuit, format string, args ...any) *Error {
	e := &Error{Stage: stage, Detail: fmt.Sprintf(format, args...)}
	if c != nil {
		e.Wires = c.Wires
		e.Circuit = c.String()
	}
	return e
}

// Simulate tabulates the permutation a cascade realizes, independently of
// the circuit package's own evaluation: each gate is applied from its raw
// Target/Controls fields (flip the target bit iff every control bit is set),
// and the resulting table is checked to be a bijection. The stage only
// labels any error returned.
func Simulate(stage Stage, c *circuit.Circuit) (perm.Perm, *Error) {
	if c == nil {
		return nil, structural(stage, nil, "no circuit")
	}
	if !Feasible(c.Wires) {
		return nil, structural(stage, c, "cannot tabulate %d wires (max %d)", c.Wires, MaxVars)
	}
	n := uint(c.Wires)
	size := uint32(1) << n
	for i, g := range c.Gates {
		if g.Target < 0 || g.Target >= c.Wires {
			return nil, structural(stage, c, "gate %d targets wire %d of %d", i, g.Target, c.Wires)
		}
		if uint32(g.Controls) >= size {
			return nil, structural(stage, c, "gate %d controls exceed %d wires", i, c.Wires)
		}
		if g.Controls>>uint(g.Target)&1 == 1 {
			return nil, structural(stage, c, "gate %d controls its own target wire %d", i, g.Target)
		}
	}
	out := make(perm.Perm, size)
	for x := uint32(0); x < size; x++ {
		v := x
		for _, g := range c.Gates {
			if v&uint32(g.Controls) == uint32(g.Controls) {
				v ^= 1 << uint(g.Target)
			}
		}
		out[x] = v
	}
	// A cascade of self-inverse gates is always a bijection; a failure here
	// means the gate validation above missed a malformed circuit, so check
	// anyway — the oracle trusts nothing.
	seen := make([]bool, size)
	for x, v := range out {
		if v >= size {
			return nil, structural(stage, c, "output %d of input %d exceeds %d wires", v, x, c.Wires)
		}
		if seen[v] {
			return nil, structural(stage, c, "not a bijection: output %d repeats at input %d", v, x)
		}
		seen[v] = true
	}
	return out, nil
}

// Circuit checks that the cascade realizes exactly the permutation want.
// A nil return means every one of the 2^n inputs maps correctly.
func Circuit(stage Stage, c *circuit.Circuit, want perm.Perm) error {
	got, verr := Simulate(stage, c)
	if verr != nil {
		return verr
	}
	if len(got) != len(want) {
		return structural(stage, c, "circuit tabulates %d rows, specification has %d", len(got), len(want))
	}
	for x := range got {
		if got[x] != want[x] {
			return &Error{Stage: stage, Wires: c.Wires, Input: uint32(x),
				Got: got[x], Want: want[x], Circuit: c.String()}
		}
	}
	return nil
}

// Spec checks the cascade against a PPRM specification, evaluating the
// expansion independently of pprm's own Eval/ToPerm: for each output, the
// term set is scattered into an indicator vector and a subset-XOR (zeta over
// GF(2)) transform turns coefficients into function values — f_j(x) is the
// XOR of the coefficients of all terms covered by x. O(n·2^n) per output
// regardless of term count.
func Spec(stage Stage, c *circuit.Circuit, s *pprm.Spec) error {
	if s == nil {
		return structural(stage, c, "no specification")
	}
	if c != nil && c.Wires != s.N {
		return structural(stage, c, "circuit has %d wires, specification %d", c.Wires, s.N)
	}
	got, verr := Simulate(stage, c)
	if verr != nil {
		return verr
	}
	want := specTable(s)
	for x := range got {
		if got[x] != want[x] {
			return &Error{Stage: stage, Wires: c.Wires, Input: uint32(x),
				Got: got[x], Want: want[x], Circuit: c.String()}
		}
	}
	return nil
}

// specTable tabulates a PPRM specification over all 2^n inputs.
func specTable(s *pprm.Spec) []uint32 {
	size := uint32(1) << uint(s.N)
	want := make([]uint32, size)
	vec := make([]byte, size)
	for j, out := range s.Out {
		clear(vec)
		for _, t := range out.Terms() {
			vec[uint32(t)&(size-1)] ^= 1
		}
		for b := uint(0); b < uint(s.N); b++ {
			bit := uint32(1) << b
			for x := uint32(0); x < size; x++ {
				if x&bit != 0 {
					vec[x] ^= vec[x&^bit]
				}
			}
		}
		for x := uint32(0); x < size; x++ {
			want[x] |= uint32(vec[x]) << uint(j)
		}
	}
	return want
}

// Transform checks that a rewriting stage preserved the function: after
// must realize exactly the permutation before realizes. This is the
// stage-boundary check that attributes a miscompile to the pass that
// introduced it — the returned Error carries the stage name and the
// rejected (post-transform) cascade. Lowering passes may widen the circuit
// with ancilla wires; extra wires must be returned to their input value
// (clean ancilla, any initial value) for every input.
func Transform(stage Stage, before, after *circuit.Circuit) error {
	if before == nil || after == nil {
		return structural(stage, after, "missing circuit")
	}
	ref, verr := Simulate(stage, before)
	if verr != nil {
		verr.Detail = "input cascade already broken: " + verr.Detail
		return verr
	}
	got, verr := Simulate(stage, after)
	if verr != nil {
		return verr
	}
	if after.Wires < before.Wires {
		return structural(stage, after, "transform narrowed the cascade from %d to %d wires", before.Wires, after.Wires)
	}
	base := uint32(1) << uint(before.Wires)
	high := uint32(len(got)) / base // ancilla-value combinations (1 when widths match)
	for a := uint32(0); a < high; a++ {
		for x := uint32(0); x < base; x++ {
			in := a<<uint(before.Wires) | x
			want := a<<uint(before.Wires) | ref[x]
			if got[in] != want {
				return &Error{Stage: stage, Wires: after.Wires, Input: in,
					Got: got[in], Want: want, Circuit: after.String()}
			}
		}
	}
	return nil
}

// PLA checks a cascade against the original incompletely-specified function
// it was synthesized from: for every real input row, the embedding's
// original-output bits must match the PLA row on every cared bit; don't-care
// bits are free. Constant inputs occupy the high wires and are driven 0, so
// the real input x is the circuit input verbatim.
func PLA(stage Stage, c *circuit.Circuit, emb *tt.Embedding, pt *tt.PartialTable) error {
	if emb == nil || pt == nil {
		return structural(stage, c, "missing embedding or partial table")
	}
	got, verr := Simulate(stage, c)
	if verr != nil {
		return verr
	}
	if c.Wires != emb.Wires {
		return structural(stage, c, "circuit has %d wires, embedding %d", c.Wires, emb.Wires)
	}
	if pt.Inputs > c.Wires {
		return structural(stage, c, "PLA has %d inputs, circuit only %d wires", pt.Inputs, c.Wires)
	}
	for x := range pt.Rows {
		y := emb.OriginalOutput(got[x])
		if diff := (y ^ pt.Rows[x]) & pt.Care[x]; diff != 0 {
			return &Error{Stage: stage, Wires: c.Wires, Input: uint32(x),
				Got: y & pt.Care[x], Want: pt.Rows[x] & pt.Care[x], Circuit: c.String()}
		}
	}
	return nil
}
