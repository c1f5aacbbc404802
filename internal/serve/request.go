package serve

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/bits"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/tt"
)

// Request is the submit-endpoint body. Exactly one SpecInput field must be
// set; everything else is optional.
type Request struct {
	// Spec is the function to synthesize.
	Spec SpecInput `json:"spec"`
	// Class selects the scheduling class: "interactive" (the default) is
	// dequeued before "batch" and is meant for small, latency-sensitive
	// requests; "batch" is for big-budget background work that tolerates
	// shedding.
	Class string `json:"class,omitempty"`
	// Budget bounds the search. Zero fields default to the server's
	// ceilings; over-ceiling values are clamped (and reported in the job's
	// "clamped" notes).
	Budget Budget `json:"budget,omitempty"`
	// FirstSolution stops at the first circuit found instead of spending
	// the improvement budget.
	FirstSolution bool `json:"first_solution,omitempty"`
	// Library selects the gate library: "gt" (default) or "nct".
	Library string `json:"library,omitempty"`
	// Wait, on the submit endpoint, blocks the HTTP request until the job
	// completes and returns the finished job instead of 202.
	Wait bool `json:"wait,omitempty"`
}

// SpecInput is the function specification: exactly one field must be set.
type SpecInput struct {
	// Bench names a built-in paper benchmark ("rd53", "hwb8", ...).
	Bench string `json:"bench,omitempty"`
	// Perm is a permutation in the paper's notation: "{1, 0, 7, 2, 3, 4, 5, 6}".
	Perm string `json:"perm,omitempty"`
	// PPRM is a positive-polarity Reed–Muller expansion, one output per line.
	PPRM *PPRMInput `json:"pprm,omitempty"`
	// PLA is a Berkeley-format truth table; irreversible functions are
	// embedded (garbage outputs + constant inputs) before synthesis.
	PLA string `json:"pla,omitempty"`
}

// PPRMInput is a PPRM expansion with its variable count.
type PPRMInput struct {
	Vars int    `json:"vars"`
	Text string `json:"text"`
}

// Budget is the per-request resource budget, in client-friendly units.
type Budget struct {
	// TimeMillis bounds wall-clock search time.
	TimeMillis int64 `json:"time_ms,omitempty"`
	// Steps bounds total node expansions (the deterministic budget).
	Steps int `json:"steps,omitempty"`
	// MemoryMiB bounds the bytes pinned by queued search nodes.
	MemoryMiB int64 `json:"memory_mib,omitempty"`
	// MaxGates bounds the synthesized circuit size.
	MaxGates int `json:"max_gates,omitempty"`
}

// RequestError is a validation failure: Field locates the offending request
// field (dot-path), Message says what is wrong with it — line-precise for
// the text formats, reusing the parsers' own diagnostics. It maps to a 400.
type RequestError struct {
	Field   string `json:"field"`
	Message string `json:"message"`
}

func (e *RequestError) Error() string { return e.Field + ": " + e.Message }

func reqErr(field, format string, args ...any) *RequestError {
	return &RequestError{Field: field, Message: fmt.Sprintf(format, args...)}
}

// maxPermEntries bounds the permutation input size: 2^16 entries, the
// answer cache's width bound (n ≤ 16), keeps a single request's parse cost
// trivial. The engine verifies up to 20 variables; functions wider than 16
// must come in as PPRM text, which stays polynomial in the written size,
// and the worker tabulates them for its re-check (see gateError).
const maxPermEntries = 1 << 16

// compiled is a validated, engine-ready request. It is immutable once
// compileRequest returns: jobs share it instead of copying its fields.
type compiled struct {
	spec   *pprm.Spec
	perm   perm.Perm // nil for PPRM input wider than 16 variables
	opts   core.Options
	class  Class
	clamps []string
	key    uint64
}

// compileRequest validates req against the server ceilings and compiles it
// into an engine-ready form. Every failure is a *RequestError naming the
// bad field; nothing is allocated into the job queue before this passes.
func compileRequest(req *Request, ceiling core.BudgetCeiling) (*compiled, *RequestError) {
	class, err := parseClass(req.Class)
	if err != nil {
		return nil, reqErr("class", "%v", err)
	}
	if req.Budget.TimeMillis < 0 {
		return nil, reqErr("budget.time_ms", "must be non-negative, got %d", req.Budget.TimeMillis)
	}
	if req.Budget.Steps < 0 {
		return nil, reqErr("budget.steps", "must be non-negative, got %d", req.Budget.Steps)
	}
	if req.Budget.MemoryMiB < 0 {
		return nil, reqErr("budget.memory_mib", "must be non-negative, got %d", req.Budget.MemoryMiB)
	}
	if req.Budget.MaxGates < 0 {
		return nil, reqErr("budget.max_gates", "must be non-negative, got %d", req.Budget.MaxGates)
	}

	opts := core.DefaultOptions()
	opts.FirstSolution = req.FirstSolution
	switch strings.ToLower(req.Library) {
	case "", "gt":
	case "nct":
		opts.Library = circuit.NCT
	default:
		return nil, reqErr("library", "unknown library %q (want \"gt\" or \"nct\")", req.Library)
	}
	opts.TimeLimit = time.Duration(req.Budget.TimeMillis) * time.Millisecond
	opts.TotalSteps = req.Budget.Steps
	opts.MaxMemory = req.Budget.MemoryMiB << 20
	opts.MaxGates = req.Budget.MaxGates
	clamps := opts.ClampBudget(ceiling)

	spec, p, rerr := compileSpec(&req.Spec)
	if rerr != nil {
		return nil, rerr
	}

	c := &compiled{spec: spec, perm: p, opts: opts, class: class, clamps: clamps}
	c.key = idempotencyKey(c)
	return c, nil
}

// compileSpec resolves the four spec input modes to a PPRM expansion (and,
// where tabulation is feasible, a permutation for verification).
func compileSpec(in *SpecInput) (*pprm.Spec, perm.Perm, *RequestError) {
	set := 0
	for _, ok := range []bool{in.Bench != "", in.Perm != "", in.PPRM != nil, in.PLA != ""} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return nil, nil, reqErr("spec", "exactly one of bench, perm, pprm, pla must be set (got %d)", set)
	}

	switch {
	case in.Bench != "":
		b, err := bench.ByName(in.Bench)
		if err != nil {
			return nil, nil, reqErr("spec.bench", "%v", err)
		}
		spec, err := b.PPRMSpec()
		if err != nil {
			return nil, nil, reqErr("spec.bench", "%v", err)
		}
		return spec, b.Spec, nil

	case in.Perm != "":
		p, err := perm.Parse(in.Perm)
		if err != nil {
			return nil, nil, reqErr("spec.perm", "%v", err)
		}
		if len(p) > maxPermEntries {
			return nil, nil, reqErr("spec.perm",
				"permutation has %d entries; the tabulated limit is %d — submit wide functions as PPRM text", len(p), maxPermEntries)
		}
		spec, err := pprm.FromPerm(p)
		if err != nil {
			return nil, nil, reqErr("spec.perm", "%v", err)
		}
		return spec, p, nil

	case in.PPRM != nil:
		if in.PPRM.Vars < 1 || in.PPRM.Vars > bits.MaxVars {
			return nil, nil, reqErr("spec.pprm.vars", "must be between 1 and %d, got %d", bits.MaxVars, in.PPRM.Vars)
		}
		spec, err := pprm.Parse(in.PPRM.Vars, in.PPRM.Text)
		if err != nil {
			return nil, nil, reqErr("spec.pprm.text", "%v", err)
		}
		if in.PPRM.Vars <= 16 {
			p := spec.ToPerm()
			if err := p.Validate(); err != nil {
				return nil, nil, reqErr("spec.pprm.text", "PPRM does not describe a reversible function: %v", err)
			}
			return spec, p, nil
		}
		return spec, nil, nil

	default: // PLA
		pt, err := tt.ParsePLAPartial(in.PLA)
		if err != nil {
			return nil, nil, reqErr("spec.pla", "%v", err)
		}
		emb, _, err := tt.EmbedPartial(pt, tt.PLAEmbedTries, tt.PLAEmbedSeed)
		if err != nil {
			return nil, nil, reqErr("spec.pla", "%v", err)
		}
		p := perm.Perm(emb.Spec)
		spec, err := pprm.FromPerm(p)
		if err != nil {
			return nil, nil, reqErr("spec.pla", "%v", err)
		}
		return spec, p, nil
	}
}

// idempotencyKey hashes everything that makes two submissions "the same
// job": the compiled function, the decision-shaping options, the budgets
// (a bigger budget is a different job — it can find a better circuit), and
// the scheduling class. FNV-1a over the component hashes.
func idempotencyKey(c *compiled) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
	}
	mix(c.spec.Hash())
	mix(core.OptionsFingerprint(&c.opts))
	mix(uint64(c.opts.TimeLimit))
	mix(uint64(int64(c.opts.TotalSteps)))
	mix(uint64(int64(c.opts.ImproveSteps)))
	if c.opts.FirstSolution {
		mix(1)
	} else {
		mix(0)
	}
	mix(uint64(c.class))
	return h
}
