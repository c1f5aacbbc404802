// Package bench defines the reversible benchmark functions evaluated in
// Section V of the paper: the fourteen worked examples (Section V-C) and
// the Table IV benchmark suite. Specifications printed in the paper are
// quoted verbatim; functions the paper defines only in prose (graycode,
// mod-adders, hwb, rd-k, one-counts, shifters, …) are generated from their
// published definitions; ham3/ham7, whose exact specifications came from a
// benchmark page that is no longer available, are documented stand-ins
// (see DESIGN.md). The suite is built on first use: the first call of All,
// Names, ByName, TableIV, Examples or ExtendedFamilies builds every entry
// once, so importing the package costs nothing at start-up.
package bench

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/tt"
)

// Published holds a comparison figure quoted in the paper's Table IV from
// Maslov's benchmark page [13] ("—" entries are absent).
type Published struct {
	Gates int
	Cost  int
}

// Benchmark is one entry of the suite.
type Benchmark struct {
	// Name as used in the paper (e.g. "rd53", "3_17", "shift10").
	Name string
	// Description of the function.
	Description string
	// Wires is the width of the reversible specification.
	Wires int
	// RealInputs and GarbageInputs are the Table IV accounting: real
	// inputs plus constant (garbage) inputs equals Wires.
	RealInputs    int
	GarbageInputs int
	// Spec is the reversible function. For wide benchmarks (the
	// shifters) Spec is nil and PPRM carries the specification.
	Spec perm.Perm
	// PPRMSpec returns the PPRM expansion of the specification.
	PPRMSpec func() (*pprm.Spec, error)
	// PaperGates is the gate count of RMRLS's own circuit: its Table IV
	// result, or for a Section V-C worked example the size of the circuit
	// the paper prints (the examples that are also Table IV rows print
	// the same count). Every Examples() entry has one.
	PaperGates int
	// PaperCost is RMRLS's Table IV quantum cost (0 for the example-only
	// entries, which Table IV does not list).
	PaperCost int
	// Best is the best published result from [13] (nil when the paper
	// shows "—").
	Best *Published
	// NCT marks the † rows of Table IV: comparison under the NCT library.
	NCT bool
	// StandIn marks functions whose exact paper specification was not
	// recoverable; results are comparable in character, not bit-exact.
	StandIn bool
	// Embedding is the irreversible→reversible lifting, when the
	// benchmark was built from a truth table (nil otherwise).
	Embedding *tt.Embedding
}

// pprmFromPerm adapts a permutation spec.
func pprmFromPerm(p perm.Perm) func() (*pprm.Spec, error) {
	return func() (*pprm.Spec, error) { return pprm.FromPerm(p) }
}

// fromPerm builds a benchmark whose reversible specification is given
// directly as a permutation (no embedding).
func fromPerm(name, desc string, vals []int, real int) *Benchmark {
	p := perm.MustFromInts(vals)
	return &Benchmark{
		Name:        name,
		Description: desc,
		Wires:       p.Vars(),
		RealInputs:  real,
		GarbageInputs: func() int {
			return p.Vars() - real
		}(),
		Spec:     p,
		PPRMSpec: pprmFromPerm(p),
	}
}

// fromTable embeds an irreversible truth table (Section II-A procedure).
func fromTable(name, desc string, tab *tt.Table) *Benchmark {
	e, err := tt.Embed(tab)
	if err != nil {
		panic(fmt.Sprintf("bench %s: %v", name, err))
	}
	p, err := perm.New(e.Spec)
	if err != nil {
		panic(fmt.Sprintf("bench %s: %v", name, err))
	}
	return &Benchmark{
		Name:          name,
		Description:   desc,
		Wires:         e.Wires,
		RealInputs:    tab.Inputs,
		GarbageInputs: e.Wires - tab.Inputs,
		Spec:          p,
		PPRMSpec:      pprmFromPerm(p),
		Embedding:     e,
	}
}

// library is the built suite: every benchmark in registration order and
// the name index over them.
type library struct {
	list   []*Benchmark
	byName map[string]*Benchmark
}

func (l *library) add(b *Benchmark) {
	if _, dup := l.byName[b.Name]; dup {
		panic("bench: duplicate benchmark " + b.Name)
	}
	l.list = append(l.list, b)
	l.byName[b.Name] = b
}

// builds counts calls of buildLibrary; the tests pin it at one.
var builds int

// lib builds the suite on the first call and returns it on every call.
// The tables take about 13 ms and 5 MB (graycode20's permutation alone is
// 4 MiB), so a process that never names a benchmark never builds them.
// A builder panic re-panics on every call.
var lib = sync.OnceValue(buildLibrary)

func buildLibrary() *library {
	builds++
	l := &library{byName: map[string]*Benchmark{}}
	// This order is what All returns and rmrls -list prints.
	addExtended(l)
	addExamples(l)
	addLiteratureBenchmarks(l)
	addNewBenchmarks(l)
	return l
}

// All returns every benchmark in registration order.
func All() []*Benchmark { return append([]*Benchmark(nil), lib().list...) }

// Names returns the sorted benchmark names.
func Names() []string {
	list := lib().list
	names := make([]string, 0, len(list))
	for _, b := range list {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	return names
}

// ByName looks a benchmark up.
func ByName(name string) (*Benchmark, error) {
	b, ok := lib().byName[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q (have %v)", name, Names())
	}
	return b, nil
}

// TableIV returns the benchmarks in the paper's Table IV row order.
func TableIV() []*Benchmark {
	order := []string{
		"2of5", "rd32", "3_17", "4_49", "alu", "rd53", "xor5", "4mod5",
		"5mod5", "ham3", "ham7", "hwb4", "decod24", "shift10", "shift15",
		"shift28", "5one013", "5one245", "6one135", "6one0246",
		"majority3", "majority5", "graycode6", "graycode10", "graycode20",
		"mod5adder", "mod32adder", "mod15adder", "mod64adder",
	}
	out := make([]*Benchmark, len(order))
	for i, n := range order {
		b, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out[i] = b
	}
	return out
}

// Examples returns the Section V-C worked examples in paper order
// (Examples 1–14; Example 14's three shifter instances share one entry
// each).
func Examples() []*Benchmark {
	order := []string{
		"ex1", "shiftright3", "fredkin3", "swap3", "swap4", "shiftleft3",
		"shiftleft4", "fulladder", "rd53", "majority5", "decod24",
		"5one013", "alu", "shift10",
	}
	out := make([]*Benchmark, len(order))
	for i, n := range order {
		b, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out[i] = b
	}
	return out
}
