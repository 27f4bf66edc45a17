// Typed allocation-backend selectors. Options.Backend used to be a bare
// string validated deep inside SolveCtx; the typed constants move the
// contract to the API surface, with errs.ErrUnknownBackend so callers
// can dispatch on the failure.
package alloc

import (
	"fmt"

	"paradigm/internal/errs"
)

// Backend names an allocation solve strategy, and — on Result — the
// path that actually produced an allocation.
type Backend string

const (
	// BackendAuto selects the default strategy (the exact convex solve).
	BackendAuto Backend = ""
	// BackendAnneal is the default strategy: one exact convex solve from
	// the box midpoint. The name is
	// the one metrics and CLI flags have always used; the solve annealed a
	// smoothed Φ before it was made exact.
	BackendAnneal Backend = "anneal"
	// BackendADMM named the consensus-ADMM decomposition, which is
	// retired. The name is still accepted and runs the exact solve, so a
	// result selected by it reports BackendAnneal.
	BackendADMM Backend = "admm"

	// BackendHeuristic and BackendCache appear only as Result labels:
	// the greedy fallback path and the allocation cache's replay. They are
	// not selectable strategies.
	BackendHeuristic Backend = "heuristic"
	BackendCache     Backend = "cache"
)

// Validate reports ErrUnknownBackend for values that name no selectable
// solve strategy.
func (b Backend) Validate() error {
	switch b {
	case BackendAuto, BackendAnneal, BackendADMM:
		return nil
	}
	return fmt.Errorf("alloc: %w: %q (want %q, %q or %q)",
		errs.ErrUnknownBackend, string(b), BackendAuto, BackendAnneal, BackendADMM)
}

// String returns the backend label ("auto" for the empty default).
func (b Backend) String() string {
	if b == BackendAuto {
		return "auto"
	}
	return string(b)
}

// ADMMOptions tuned the retired consensus-ADMM backend.
//
// Deprecated: ignored. The fields remain only so that callers which still
// set them compile; every backend name runs the exact solve.
type ADMMOptions struct {
	Subgraphs, MaxIters int
	SkipPolish          bool
}
