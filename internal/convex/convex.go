// Package convex implements the allocator's convex minimizer.
//
// The paper's allocation step (Section 2) requires the exact minimum of a
// convex program: Φ = max(A_p, C_p) over log-processor variables inside the
// box [0, ln p]^n. Go has no convex-programming library, so this package
// provides one solver sized for the problem class: MinimizeEpigraph
// (ipm.go, sparse.go) solves the program exactly. In epigraph form
// (expr.Graph.Epigraph) it is a geometric program, and a primal-dual
// interior-point method with a sparse Cholesky factor stops on a certified
// duality gap of 1e-9 in log units. The tests hold it to an annealed
// smoothed minimizer kept as their reference (reference_test.go).
package convex

import (
	"fmt"
	"math"
)

// Status describes why MinimizeEpigraph stopped.
type Status int

const (
	// MaxIterReached: iteration budget exhausted.
	MaxIterReached Status = iota
	// LineSearchStalled: no step decreased the residual.
	LineSearchStalled
	// GapConverged: the duality gap is certified below its tolerance.
	GapConverged
	// Stepped marks an iterate reported mid-solve, before any stop rule
	// fired.
	Stepped
)

// String renders the status for diagnostics.
func (s Status) String() string {
	switch s {
	case MaxIterReached:
		return "max-iterations"
	case LineSearchStalled:
		return "line-search-stalled"
	case GapConverged:
		return "gap-converged"
	case Stepped:
		return "stepped"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Result reports the minimizer outcome.
type Result struct {
	X     []float64
	F     float64
	Iters int
	// Evals counts evaluations of every constraint at one point, values
	// and gradients together.
	Evals  int
	Status Status
	// Gap is the certificate, in the units of the objective (a log): F,
	// the log of the root's exact value at X, is within Gap of the
	// optimum.
	Gap float64
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// expOf and logOf are math.Exp and math.Log answering exp(0) = 1 and
// log(1) = 0, the values those return exactly, without the call: a
// constraint's largest term and a constraint of one term are common.
func expOf(x float64) float64 {
	if x == 0 {
		return 1
	}
	return math.Exp(x)
}

func logOf(x float64) float64 {
	if x == 1 {
		return 0
	}
	return math.Log(x)
}
