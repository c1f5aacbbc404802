package verify

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/mmd"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
	"repro/internal/tt"
)

func TestSimulateAgainstCircuitPerm(t *testing.T) {
	// The oracle's independent simulation must agree with the production
	// path (Circuit.Perm) on random well-formed cascades: a disagreement
	// here means one of the two gate interpreters is wrong.
	src := rng.New(7)
	for n := 1; n <= 6; n++ {
		for trial := 0; trial < 20; trial++ {
			c := circuit.Random(n, 1+src.Intn(12), circuit.GT, src)
			got, verr := Simulate(StageSearch, c)
			if verr != nil {
				t.Fatalf("n=%d: %v", n, verr)
			}
			want := c.Perm()
			for x := range want {
				if got[x] != want[x] {
					t.Fatalf("n=%d circuit %v: oracle %d → %d, production %d", n, c, x, got[x], want[x])
				}
			}
		}
	}
}

func TestSimulateRejectsMalformedGates(t *testing.T) {
	cases := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"target out of range", &circuit.Circuit{Wires: 2, Gates: []circuit.Gate{{Target: 2}}}},
		{"controls out of range", &circuit.Circuit{Wires: 2, Gates: []circuit.Gate{{Target: 0, Controls: 1 << 5}}}},
		{"self-controlled", &circuit.Circuit{Wires: 2, Gates: []circuit.Gate{{Target: 1, Controls: 1 << 1}}}},
	}
	for _, tc := range cases {
		if _, verr := Simulate(StageSearch, tc.c); verr == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, verr := Simulate(StageSearch, nil); verr == nil {
		t.Error("nil circuit accepted")
	}
	wide := circuit.New(MaxVars + 1)
	if _, verr := Simulate(StageSearch, wide); verr == nil {
		t.Error("infeasible width accepted")
	}
}

func TestCircuitDetectsMismatchWithAttribution(t *testing.T) {
	c := circuit.New(3)
	c.Append(circuit.Gate{Target: 0, Controls: bits.Bit(1) | bits.Bit(2)}) // TOF3(c,b,a)
	p := c.Perm()
	if err := Circuit(StagePeephole, c, p); err != nil {
		t.Fatalf("correct circuit rejected: %v", err)
	}
	// Corrupt one gate: the check must fail, name the stage, and report a
	// concrete counterexample input.
	bad := circuit.New(3)
	bad.Append(circuit.Gate{Target: 1, Controls: bits.Bit(0) | bits.Bit(2)})
	err := Circuit(StagePeephole, bad, p)
	if err == nil {
		t.Fatal("corrupted circuit accepted")
	}
	var verr *Error
	if !errors.As(err, &verr) {
		t.Fatalf("error is %T, want *verify.Error", err)
	}
	if verr.Stage != StagePeephole {
		t.Errorf("stage = %q, want %q", verr.Stage, StagePeephole)
	}
	if got := bad.Perm()[verr.Input]; got != verr.Got || p[verr.Input] != verr.Want {
		t.Errorf("counterexample does not reproduce: input %d got %d/%d want %d/%d",
			verr.Input, got, verr.Got, p[verr.Input], verr.Want)
	}
	if verr.Circuit != bad.String() {
		t.Errorf("error carries circuit %q, want %q", verr.Circuit, bad.String())
	}
	if !strings.Contains(verr.Error(), "peephole") {
		t.Errorf("message %q does not name the stage", verr.Error())
	}
}

func TestSpecIndependentEvaluation(t *testing.T) {
	// Random reversible functions: the subset-XOR tabulation of the PPRM
	// expansion must reproduce the permutation the expansion was built from.
	src := rng.New(11)
	for n := 1; n <= 6; n++ {
		for trial := 0; trial < 10; trial++ {
			p := perm.Random(n, src)
			spec, err := pprm.FromPerm(p)
			if err != nil {
				t.Fatal(err)
			}
			want := specTable(spec)
			for x := range p {
				if want[x] != p[x] {
					t.Fatalf("n=%d: specTable[%d] = %d, want %d", n, x, want[x], p[x])
				}
			}
		}
	}
}

func TestSpecChecksCascade(t *testing.T) {
	src := rng.New(13)
	p := perm.Random(4, src)
	spec, err := pprm.FromPerm(p)
	if err != nil {
		t.Fatal(err)
	}
	c := mmd.Synthesize(p, mmd.Unidirectional)
	if err := Spec(StageSearch, c, spec); err != nil {
		t.Fatalf("correct cascade rejected: %v", err)
	}
	c.Gates[0].Target = (c.Gates[0].Target + 1) % 4
	c.Gates[0].Controls &^= bits.Bit(c.Gates[0].Target)
	if err := Spec(StageSearch, c, spec); err == nil {
		t.Fatal("corrupted cascade accepted")
	}
}

func TestTransformAcceptsEquivalentRejectsBroken(t *testing.T) {
	src := rng.New(17)
	c := circuit.Random(4, 8, circuit.GT, src)
	simplified := c.Simplify()
	if err := Transform(StageSimplify, c, simplified); err != nil {
		t.Fatalf("simplify flagged as miscompile: %v", err)
	}
	// Dropping a non-cancelling gate changes the function.
	broken := circuit.New(4)
	broken.Append(c.Gates[1:]...)
	if bp, cp := broken.Perm(), c.Perm(); !bp.Equal(cp) {
		err := Transform(StageSimplify, c, broken)
		var verr *Error
		if !errors.As(err, &verr) || verr.Stage != StageSimplify {
			t.Fatalf("broken transform: got %v", err)
		}
	}
}

func TestTransformAllowsCleanAncillaWidening(t *testing.T) {
	// A lowering pass may add wires; any ancilla value must pass through
	// unchanged and the base function must be preserved on every slice.
	before := circuit.New(2)
	before.Append(circuit.Gate{Target: 0, Controls: bits.Bit(1)})
	after := circuit.New(3)
	after.Append(circuit.Gate{Target: 0, Controls: bits.Bit(1)})
	if err := Transform(StageDecomp, before, after); err != nil {
		t.Fatalf("clean widening rejected: %v", err)
	}
	// A version that flips the ancilla is a miscompile.
	dirty := circuit.New(3)
	dirty.Append(circuit.Gate{Target: 0, Controls: bits.Bit(1)}, circuit.Gate{Target: 2})
	if err := Transform(StageDecomp, before, dirty); err == nil {
		t.Fatal("dirty ancilla accepted")
	}
	narrowed := circuit.New(1)
	if err := Transform(StageDecomp, before, narrowed); err == nil {
		t.Fatal("narrowing accepted")
	}
}

func TestPLADontCareAware(t *testing.T) {
	// A half-specified single-output function: row 0 and 1 cared, rows 2–3
	// don't-care. Any circuit agreeing on the cared bits must pass, however
	// it fills the rest.
	pt := &tt.PartialTable{Inputs: 2, Outputs: 1,
		Rows: []uint32{1, 0, 0, 0}, Care: []uint32{1, 1, 0, 0}}
	emb, _, err := tt.EmbedPartial(pt, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := perm.Perm(emb.Spec)
	c := mmd.Synthesize(p, mmd.Unidirectional)
	if err := PLA(StageSearch, c, emb, pt); err != nil {
		t.Fatalf("embedding's own realization rejected: %v", err)
	}
	// Flip the wire carrying the real output: cared rows now disagree.
	bad := circuit.New(emb.Wires)
	bad.Append(c.Gates...)
	bad.Append(circuit.Gate{Target: emb.OutputWires[0]})
	err = PLA(StageSearch, bad, emb, pt)
	var verr *Error
	if !errors.As(err, &verr) {
		t.Fatalf("corrupted output accepted (err=%v)", err)
	}
	if int(verr.Input) >= len(pt.Rows) {
		t.Errorf("counterexample input %d outside the real input range", verr.Input)
	}
	// Flipping only don't-care garbage must NOT fail the check: append a
	// NOT on a garbage wire (any wire that is not an output wire).
	garbageWire := -1
	for w := 0; w < emb.Wires; w++ {
		if w != emb.OutputWires[0] {
			garbageWire = w
			break
		}
	}
	if garbageWire >= 0 {
		free := circuit.New(emb.Wires)
		free.Append(c.Gates...)
		free.Append(circuit.Gate{Target: garbageWire})
		if err := PLA(StageSearch, free, emb, pt); err != nil {
			t.Fatalf("don't-care-only deviation rejected: %v", err)
		}
	}
}

// TestRelabelMetamorphic checks, with the oracle, that a cascade
// conjugated by a transform realizes the conjugated permutation.
func TestRelabelMetamorphic(t *testing.T) {
	src := rng.New(23)
	transforms := []canon.Transform{
		{Wires: []int{1, 0, 2, 3}},
		{Wires: []int{3, 2, 1, 0}, Polarity: 0b0101},
		{Wires: []int{2, 0, 3, 1}, Polarity: 0b1111},
	}
	for trial := 0; trial < 10; trial++ {
		c := circuit.Random(4, 1+src.Intn(10), circuit.GT, src)
		p, verr := Simulate(StageSearch, c)
		if verr != nil {
			t.Fatal(verr)
		}
		for _, tr := range transforms {
			tc, err := tr.ConjugateCircuit(c)
			if err != nil {
				t.Fatal(err)
			}
			if err := Circuit(StageSearch, tc, tr.Conjugate(p)); err != nil {
				t.Fatalf("transform %v breaks the conjugation invariant: %v", tr, err)
			}
		}
	}
	if _, err := (canon.Transform{Wires: []int{0, 1}}).ConjugateCircuit(circuit.New(3)); err == nil {
		t.Error("short wire map accepted")
	}
}

func TestFeasible(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{{0, false}, {1, true}, {MaxVars, true}, {MaxVars + 1, false}} {
		if Feasible(tc.n) != tc.ok {
			t.Errorf("Feasible(%d) = %v, want %v", tc.n, !tc.ok, tc.ok)
		}
	}
}

// BenchmarkSpec measures one always-on gate check, verify.Spec, on a random
// 10-gate generalized-Toffoli cascade against its own PPRM expansion, at the
// widest Table V width (16 wires) and at MaxVars:
//
//	go test -run '^$' -bench Spec -benchmem ./internal/verify
func BenchmarkSpec(b *testing.B) {
	for _, n := range []int{16, MaxVars} {
		b.Run(fmt.Sprintf("wires=%d", n), func(b *testing.B) {
			c := circuit.Random(n, 10, circuit.GT, rng.New(1))
			spec := c.PPRM()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Spec(StageSearch, c, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
