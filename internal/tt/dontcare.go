package tt

import (
	"fmt"

	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/rng"
)

// PartialTable is an incompletely specified multi-output function: output
// bit j of row x is specified iff bit j of Care[x] is set; unspecified
// bits are don't-cares. The paper lists don't-care handling as future work
// ("We currently preassign values to don't-care outputs. It would be
// better if we could find a way to dynamically assign these values");
// EmbedPartial explores assignments instead of fixing one blindly.
type PartialTable struct {
	Inputs  int
	Outputs int
	Rows    []uint32
	Care    []uint32
}

// Validate checks structural consistency.
func (t *PartialTable) Validate() error {
	full := Table{Inputs: t.Inputs, Outputs: t.Outputs, Rows: t.Rows}
	if err := full.Validate(); err != nil {
		return err
	}
	if len(t.Care) != len(t.Rows) {
		return fmt.Errorf("tt: %d care masks for %d rows", len(t.Care), len(t.Rows))
	}
	outMask := uint32(1)<<uint(t.Outputs) - 1
	for x, c := range t.Care {
		if c&^outMask != 0 {
			return fmt.Errorf("tt: care mask %d out of range at row %d", c, x)
		}
		if t.Rows[x]&^c != 0 {
			return fmt.Errorf("tt: row %d sets unspecified bits", x)
		}
	}
	return nil
}

// DontCareBits returns the total number of unspecified output bits.
func (t *PartialTable) DontCareBits() int {
	n := 0
	outMask := uint32(1)<<uint(t.Outputs) - 1
	for _, c := range t.Care {
		n += t.Outputs - OnesCount(c&outMask)
	}
	return n
}

// assign materializes one completion of the don't-cares: bit j of row x
// takes choose(x, j) when unspecified.
func (t *PartialTable) assign(choose func(x int, j int) uint32) *Table {
	out := New(t.Inputs, t.Outputs)
	for x := range t.Rows {
		v := t.Rows[x]
		for j := 0; j < t.Outputs; j++ {
			if t.Care[x]>>uint(j)&1 == 0 {
				v |= choose(x, j) << uint(j)
			}
		}
		out.Rows[x] = v
	}
	return out
}

// PLAEmbedTries and PLAEmbedSeed are the EmbedPartial arguments the PLA
// front ends (the rmrls CLI and the rmrlsd service) use. They are fixed so
// that a PLA's embedding, and every hash and answer derived from it, is
// deterministic; rmrlsd records them in its quarantine artifacts so that
// an offline replay embeds the same way.
const (
	PLAEmbedTries        = 16
	PLAEmbedSeed  uint64 = 1
)

// EmbedPartial embeds an incompletely specified function, choosing among
// `tries` don't-care completions (the all-zeros and all-ones assignments
// plus seeded random ones) the completion whose reversible embedding has
// the smallest PPRM expansion — the measure the synthesis effort tracks.
// It returns the winning embedding and the completed table.
func EmbedPartial(t *PartialTable, tries int, seed uint64) (*Embedding, *Table, error) {
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	if tries < 2 {
		tries = 2
	}
	src := rng.New(seed)
	var bestE *Embedding
	var bestT *Table
	bestTerms := -1
	for i := 0; i < tries; i++ {
		var full *Table
		switch i {
		case 0:
			full = t.assign(func(int, int) uint32 { return 0 })
		case 1:
			full = t.assign(func(int, int) uint32 { return 1 })
		default:
			full = t.assign(func(int, int) uint32 { return uint32(src.Intn(2)) })
		}
		e, err := Embed(full)
		if err != nil {
			return nil, nil, err
		}
		spec, err := pprm.FromPerm(perm.Perm(e.Spec))
		if err != nil {
			return nil, nil, fmt.Errorf("tt: completion %d not reversible: %v", i, err)
		}
		if terms := spec.Terms(); bestTerms < 0 || terms < bestTerms {
			bestTerms = terms
			bestE = e
			bestT = full
		}
	}
	return bestE, bestT, nil
}
