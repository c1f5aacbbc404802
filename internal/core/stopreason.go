package core

// StopReason records why a synthesis run returned. The paper bounds every
// run with a wall-clock timer and a 768-MB memory ceiling and reports
// best-so-far circuits; StopReason is how a caller tells a genuine
// exhaustive "no circuit exists within the gate bound" apart from a budget
// that simply ran out — and which budget it was.
//
// The zero value StopNone means "no search was run" (e.g. the Result of a
// rejected permutation); every completed run reports a non-zero reason.
type StopReason int

const (
	// StopNone is the zero value: the search never ran.
	StopNone StopReason = iota
	// StopSolved: a solution was found and the run ended because it was
	// satisfied with it — FirstSolution fired, the ImproveSteps budget was
	// spent, or the queue drained with a best circuit in hand.
	StopSolved
	// StopQueueExhausted: the priority queue drained with no solution and
	// no restart heuristic configured (or none ever applicable). Under
	// admission rules that prune, this is "the searched subspace is empty",
	// not a proof that no circuit exists.
	StopQueueExhausted
	// StopDeadline: the wall-clock TimeLimit expired.
	StopDeadline
	// StopCanceled: the caller's context was canceled (Ctrl-C, server
	// shutdown, a portfolio sibling winning, …).
	StopCanceled
	// StopStepLimit: the deterministic TotalSteps budget was spent.
	StopStepLimit
	// StopMemoryLimit: the approximate accounted memory (queued nodes
	// plus the transposition table) exceeded MaxMemory, and neither
	// pruning the queue nor resetting the table brought it back under
	// the ceiling (the paper's 768-MB abort condition).
	StopMemoryLimit
	// StopRestartsExhausted: the restart heuristic ran out of alternative
	// first-level substitutions with no solution.
	StopRestartsExhausted
	// StopInternalError: an internal invariant panic (pprm, circuit) was
	// recovered and converted into the Result's Err.
	StopInternalError
	// StopVerifyFailed: the search found a circuit but the independent
	// post-synthesis verification gate (internal/verify) rejected it — the
	// realized permutation does not match the specification. The Result's
	// Err carries the typed *verify.Error diagnosis, including the rejected
	// cascade and a counterexample input. Appended last so checkpointed and
	// ledgered numeric values of the earlier reasons stay stable.
	StopVerifyFailed
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopSolved:
		return "solved"
	case StopQueueExhausted:
		return "queue-exhausted"
	case StopDeadline:
		return "deadline"
	case StopCanceled:
		return "canceled"
	case StopStepLimit:
		return "step-limit"
	case StopMemoryLimit:
		return "memory-limit"
	case StopRestartsExhausted:
		return "restarts-exhausted"
	case StopInternalError:
		return "internal-error"
	case StopVerifyFailed:
		return "verify-failed"
	default:
		return "unknown"
	}
}
