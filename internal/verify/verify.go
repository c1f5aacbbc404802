// Package verify is the independent correctness gate for synthesized
// cascades: it re-simulates a circuit gate by gate and compares the realized
// permutation against the source specification, sharing no evaluation code
// with the PPRM search path (no Gate.Apply, no Circuit.Perm, no Spec.Eval,
// no pprm word kernel). A shared bug between producer and checker would make
// the check vacuous, so the oracle re-derives everything from the data
// structures alone: gate semantics from the Target/Controls fields, the
// specified function from the raw PPRM term sets via an independent
// subset-XOR transform, and PLA conformance from the partial table's care
// masks.
//
// The package also attributes failures to pipeline stages: Transform checks
// that an optimizer or lowering pass (peephole, template, decomp) preserved
// the permutation its input realized, so a mismatch names the stage that
// introduced it rather than just "the output is wrong".
//
// Every check covers all 2^n inputs exactly, so the cost doubles with each
// wire and is bounded by MaxVars; Feasible tells callers when the gate
// applies. Spec, the always-on gate, is bit-sliced (64 inputs per machine
// word); Simulate and the checks built on it tabulate one input at a time.
// See docs/VERIFICATION.md.
package verify

import (
	"fmt"
	mbits "math/bits"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/tt"
)

// MaxVars is the widest function the oracle checks, comfortably above every
// benchmark the engine verifies today. The cost doubles with each wire: on
// a shared 2-vCPU virtual machine (Go 1.24) one Spec check of a 10-gate
// cascade took 0.77–0.82 ms and 144 KiB at 16 wires, and 18–23 ms and
// 2.75 MiB at 20 wires; the test reference, which tabulates one input at a
// time, took 32–39 ms and 640 KiB, and 0.79–0.96 s and 10 MiB
// (BenchmarkSpec and BenchmarkSpecReference:
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
	if verr := checkGates(stage, c); verr != nil {
		return nil, verr
	}
	size := uint32(1) << uint(c.Wires)
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

// checkGates rejects a missing circuit, one too wide to check, and any gate
// that targets a wire outside the cascade, has a control outside it, or
// controls its own target.
func checkGates(stage Stage, c *circuit.Circuit) *Error {
	if c == nil {
		return structural(stage, nil, "no circuit")
	}
	if !Feasible(c.Wires) {
		return structural(stage, c, "cannot tabulate %d wires (max %d)", c.Wires, MaxVars)
	}
	size := uint32(1) << uint(c.Wires)
	for i, g := range c.Gates {
		if g.Target < 0 || g.Target >= c.Wires {
			return structural(stage, c, "gate %d targets wire %d of %d", i, g.Target, c.Wires)
		}
		if uint32(g.Controls) >= size {
			return structural(stage, c, "gate %d controls exceed %d wires", i, c.Wires)
		}
		if g.Controls>>uint(g.Target)&1 == 1 {
			return structural(stage, c, "gate %d controls its own target wire %d", i, g.Target)
		}
	}
	return nil
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

// Spec checks the cascade against a PPRM specification over all 2^n
// inputs, 64 inputs per machine word (bit x%64 of word x/64 stands for input
// x), evaluating neither the cascade nor the expansion with the code that
// produced them:
//
//   - each wire is a bit vector over the inputs, and each gate flips its
//     target's vector where the AND of its controls' vectors is set — the
//     gate semantics taken from the raw Target/Controls fields;
//   - each output's term set (Terms) is scattered into an indicator vector,
//     and a subset-XOR (zeta over GF(2)) transform turns coefficients into
//     function values: f_j(x) is the XOR of the coefficients of all terms
//     covered by x;
//   - the first mismatching input is the lowest set bit of the OR of the
//     per-output differences;
//   - the cascade is a bijection when running it backwards returns every
//     wire to its input vector, so a repeated output is caught too.
//
// O(n·2^n/64) word operations per output and O(2^n/64) per gate control,
// regardless of term count.
func Spec(stage Stage, c *circuit.Circuit, s *pprm.Spec) error {
	if s == nil {
		return structural(stage, c, "no specification")
	}
	if c != nil && c.Wires != s.N {
		return structural(stage, c, "circuit has %d wires, specification %d", c.Wires, s.N)
	}
	if verr := checkGates(stage, c); verr != nil {
		return verr
	}
	n := c.Wires
	words, valid := 1, uint64(1)<<(1<<uint(n))-1 // inputs in use in a word
	if n >= 6 {
		words, valid = 1<<uint(n-6), ^uint64(0)
	}
	buf := make([]uint64, (n+2)*words)
	wires, vec, diff := buf[:n*words], buf[n*words:(n+1)*words], buf[(n+1)*words:]
	wire := func(i int) []uint64 { return wires[i*words : (i+1)*words] }
	for i := 0; i < n; i++ {
		inputVector(wire(i), i, valid)
	}
	for _, g := range c.Gates {
		applyGate(wires, words, g.Target, uint32(g.Controls), valid, vec)
	}

	// Outputs beyond the spec's are 0; a got bit beyond the wires is 0; an
	// output past bit 31 cannot be told apart in a uint32 row.
	outs := min(max(n, len(s.Out)), 32)
	size := uint32(1) << uint(n)
	for j := 0; j < outs; j++ {
		clear(vec)
		if j < len(s.Out) {
			for _, t := range s.Out[j].Terms() {
				t &= size - 1
				vec[t>>6] ^= 1 << (t & 63)
			}
			subsetXOR(vec, n)
		}
		if j < n {
			for k, w := range wire(j) {
				diff[k] |= vec[k] ^ w
			}
		} else {
			for k, v := range vec {
				diff[k] |= v
			}
		}
	}
	var mismatch *Error
	for k, d := range diff {
		if d == 0 {
			continue
		}
		x := uint32(k*64 + mbits.TrailingZeros64(d))
		mismatch = &Error{Stage: stage, Wires: n, Input: x, Got: rowOf(wires, words, n, x), Want: specRow(s, outs, size, x)}
		break
	}

	for i := len(c.Gates) - 1; i >= 0; i-- {
		g := c.Gates[i]
		applyGate(wires, words, g.Target, uint32(g.Controls), valid, vec)
	}
	for i := 0; i < n; i++ {
		inputVector(vec, i, valid)
		for k, w := range wire(i) {
			if d := w ^ vec[k]; d != 0 {
				x := k*64 + mbits.TrailingZeros64(d)
				return structural(stage, c, "not a bijection: running the cascade backwards does not return input %d", x)
			}
		}
	}
	if mismatch != nil {
		mismatch.Circuit = c.String()
		return mismatch
	}
	return nil
}

// inBlock[i] marks, within a word of 64 consecutive inputs, the inputs
// whose bit i is set, for i < 6.
var inBlock = [6]uint64{
	0xaaaaaaaaaaaaaaaa,
	0xcccccccccccccccc,
	0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00,
	0xffff0000ffff0000,
	0xffffffff00000000,
}

// inputVector writes the bit vector of input wire i into v: bit x is bit i
// of x, over the inputs valid marks in each word.
func inputVector(v []uint64, i int, valid uint64) {
	for k := range v {
		switch {
		case i < 6:
			v[k] = inBlock[i] & valid
		case k>>uint(i-6)&1 == 1:
			v[k] = ^uint64(0)
		default:
			v[k] = 0
		}
	}
}

// applyGate flips target's vector wherever every control's vector is set,
// over the inputs valid marks, using m (one vector long) as scratch. A gate
// with no controls flips every input.
func applyGate(wires []uint64, words, target int, controls uint32, valid uint64, m []uint64) {
	for k := range m {
		m[k] = valid
	}
	for cs := controls; cs != 0; cs &= cs - 1 {
		i := mbits.TrailingZeros32(cs)
		for k, w := range wires[i*words : (i+1)*words] {
			m[k] &= w
		}
	}
	for k, w := range m {
		wires[target*words+k] ^= w
	}
}

// subsetXOR applies the subset-XOR transform to the 2^n-input vector v in
// place: input x becomes the XOR of the inputs whose bits are a subset of
// x's. A variable below 6 pairs each input with the one 2^i below it in the
// same word; above, whole words pair up, each with the one 2^(i−6) words
// below it.
func subsetXOR(v []uint64, n int) {
	in := min(n, 6)
	for k, w := range v {
		for i := 0; i < in; i++ {
			w ^= (w &^ inBlock[i]) << (1 << uint(i))
		}
		v[k] = w
	}
	for step := 1; step < len(v); step <<= 1 {
		for base := 0; base < len(v); base += 2 * step {
			lo, hi := v[base:base+step], v[base+step:base+2*step]
			for k := range hi {
				hi[k] ^= lo[k]
			}
		}
	}
}

// rowOf reads input x's output row from the n wire vectors.
func rowOf(wires []uint64, words, n int, x uint32) uint32 {
	var y uint32
	for i := 0; i < n; i++ {
		y |= uint32(wires[i*words+int(x>>6)]>>(x&63)&1) << uint(i)
	}
	return y
}

// specRow evaluates the first outs outputs of s at input x straight from
// the term sets: output j is the parity of the terms x covers.
func specRow(s *pprm.Spec, outs int, size, x uint32) uint32 {
	var y uint32
	for j := 0; j < min(outs, len(s.Out)); j++ {
		var parity uint32
		for _, t := range s.Out[j].Terms() {
			if t&(size-1)&^x == 0 {
				parity ^= 1
			}
		}
		y |= parity << uint(j)
	}
	return y
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
