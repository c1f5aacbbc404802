package core

import (
	"fmt"
	"time"
)

// BudgetCeiling is a set of server-wide per-request resource ceilings. A
// synthesis service clamps every request's budgets against it so that no
// single request can hold a worker, the memory accountant, or the queue
// hostage: an unlimited (zero) request budget is raised to the ceiling, and
// a budget above the ceiling is cut down to it. A zero ceiling field means
// "no ceiling for that dimension" — the request's own value stands.
type BudgetCeiling struct {
	// MaxTime caps Options.TimeLimit.
	MaxTime time.Duration
	// MaxSteps caps Options.TotalSteps.
	MaxSteps int
	// MaxMemory caps Options.MaxMemory (bytes).
	MaxMemory int64
	// MaxGates caps Options.MaxGates.
	MaxGates int
}

// ClampBudget clamps the Options' budget fields (TimeLimit, TotalSteps,
// MaxMemory, MaxGates) against the ceiling and returns one human-readable
// note per adjustment, in a stable order. Only budgets are touched: the
// decision-shaping options (weights, pruning, admission, dedup) are left
// alone, so a clamped run remains checkpoint-compatible with an unclamped
// one (see optionsFingerprint — MaxMemory is the one fingerprinted field a
// ceiling can change, which is why services clamp before the first run, not
// between segments).
func (o *Options) ClampBudget(c BudgetCeiling) []string {
	var notes []string
	if c.MaxTime > 0 {
		switch {
		case o.TimeLimit == 0:
			o.TimeLimit = c.MaxTime
			notes = append(notes, fmt.Sprintf("time defaulted to ceiling %v", c.MaxTime))
		case o.TimeLimit > c.MaxTime:
			notes = append(notes, fmt.Sprintf("time clamped %v -> %v", o.TimeLimit, c.MaxTime))
			o.TimeLimit = c.MaxTime
		}
	}
	if c.MaxSteps > 0 {
		switch {
		case o.TotalSteps == 0:
			o.TotalSteps = c.MaxSteps
			notes = append(notes, fmt.Sprintf("steps defaulted to ceiling %d", c.MaxSteps))
		case o.TotalSteps > c.MaxSteps:
			notes = append(notes, fmt.Sprintf("steps clamped %d -> %d", o.TotalSteps, c.MaxSteps))
			o.TotalSteps = c.MaxSteps
		}
	}
	if c.MaxMemory > 0 {
		switch {
		case o.MaxMemory == 0:
			o.MaxMemory = c.MaxMemory
			notes = append(notes, fmt.Sprintf("memory defaulted to ceiling %d MiB", c.MaxMemory>>20))
		case o.MaxMemory > c.MaxMemory:
			notes = append(notes, fmt.Sprintf("memory clamped %d MiB -> %d MiB", o.MaxMemory>>20, c.MaxMemory>>20))
			o.MaxMemory = c.MaxMemory
		}
	}
	if c.MaxGates > 0 {
		switch {
		case o.MaxGates == 0:
			o.MaxGates = c.MaxGates
			notes = append(notes, fmt.Sprintf("max gates defaulted to ceiling %d", c.MaxGates))
		case o.MaxGates > c.MaxGates:
			notes = append(notes, fmt.Sprintf("max gates clamped %d -> %d", o.MaxGates, c.MaxGates))
			o.MaxGates = c.MaxGates
		}
	}
	return notes
}

// OptionsFingerprint hashes the decision-shaping options — everything that
// influences which nodes are generated, scored, admitted, pruned, or
// deduplicated. Two Options values with equal fingerprints drive the search
// identically; budgets that only decide when to stop (TimeLimit,
// TotalSteps, ImproveSteps, FirstSolution) are excluded. Services use it as
// the options half of an idempotency key; the checkpoint layer uses the
// same hash to gate resumes.
func OptionsFingerprint(o *Options) uint64 { return optionsFingerprint(o) }
