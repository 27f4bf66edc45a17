// Package convex implements a box-constrained first-order convex minimizer.
//
// The paper's allocation step (Section 2) requires the exact minimum of a
// convex program: Φ = max(A_p, C_p) over log-processor variables inside the
// box [0, ln p]^n. Go has no convex-programming library, so this package
// provides one sized for the problem class: smooth convex objectives with
// exact gradients on a box. The method is projected gradient descent with
// Nesterov acceleration, adaptive restart, and Armijo backtracking line
// search — for smooth convex f this converges to the global minimum; the
// allocator anneals the smoothing temperature of its max terms and
// warm-starts each stage, so the overall pipeline converges to the true
// (non-smooth) optimum Φ.
package convex

import (
	"errors"
	"fmt"
	"math"
)

// Objective is a differentiable function. Eval returns f(x) and, when grad
// is non-nil, writes ∂f/∂x into it. Implementations must treat x as
// read-only.
type Objective interface {
	Eval(x []float64, grad []float64) float64
}

// Func adapts a closure to the Objective interface.
type Func func(x []float64, grad []float64) float64

// Eval implements Objective.
func (f Func) Eval(x []float64, grad []float64) float64 { return f(x, grad) }

// Options tunes Minimize. The zero value selects sensible defaults.
type Options struct {
	// MaxIter caps outer iterations (default 2000).
	MaxIter int
	// GradTol stops when the projected-gradient infinity norm falls below
	// it (default 1e-8).
	GradTol float64
	// FTol stops when the relative objective decrease over an iteration
	// falls below it (default 1e-12).
	FTol float64
	// InitStep is the first trial step length (default 1.0).
	InitStep float64
	// Backtrack is the step shrink factor in (0,1) (default 0.5).
	Backtrack float64
	// Armijo is the sufficient-decrease constant in (0,1) (default 1e-4).
	Armijo float64
	// MaxBacktracks caps line-search halvings per iteration (default 60).
	MaxBacktracks int
	// StopCheck, when non-nil, is polled every few iterations; returning
	// true aborts the minimization with ErrStopped. The hook exists for
	// cooperative cancellation of racing solves: it must be cheap (an
	// atomic load) and is never called with partial state exposed.
	StopCheck func() bool
}

// ErrStopped is returned when Options.StopCheck requested an abort. The
// caller that installed the hook knows why; everyone else treats it as a
// failed solve.
var ErrStopped = errors.New("convex: stopped by StopCheck")

// stopCheckStride is how many outer iterations run between StopCheck
// polls: frequent enough that an abandoned racing solve stops within
// microseconds, rare enough to stay invisible in profiles.
const stopCheckStride = 16

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 2000
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-8
	}
	if o.FTol <= 0 {
		o.FTol = 1e-12
	}
	if o.InitStep <= 0 {
		o.InitStep = 1.0
	}
	if o.Backtrack <= 0 || o.Backtrack >= 1 {
		o.Backtrack = 0.5
	}
	if o.Armijo <= 0 || o.Armijo >= 1 {
		o.Armijo = 1e-4
	}
	if o.MaxBacktracks <= 0 {
		o.MaxBacktracks = 60
	}
	return o
}

// Status describes why Minimize stopped.
type Status int

const (
	// GradientConverged: projected gradient norm below GradTol.
	GradientConverged Status = iota
	// ObjectiveConverged: relative objective decrease below FTol.
	ObjectiveConverged
	// MaxIterReached: iteration budget exhausted.
	MaxIterReached
	// LineSearchStalled: no decreasing step found (objective flat to
	// machine precision along the projected direction).
	LineSearchStalled
)

// String renders the status for diagnostics.
func (s Status) String() string {
	switch s {
	case GradientConverged:
		return "gradient-converged"
	case ObjectiveConverged:
		return "objective-converged"
	case MaxIterReached:
		return "max-iterations"
	case LineSearchStalled:
		return "line-search-stalled"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Result reports the minimizer outcome.
type Result struct {
	X     []float64
	F     float64
	Iters int
	// Evals counts objective evaluations — every call into the
	// objective, line search included, counts exactly once whether or
	// not a gradient was requested. The accepted line-search point is
	// evaluated once (value and gradient fused), never twice.
	Evals  int
	Status Status
}

// Converged reports whether the stop was a convergence criterion rather
// than an iteration cap.
func (r Result) Converged() bool {
	return r.Status == GradientConverged || r.Status == ObjectiveConverged || r.Status == LineSearchStalled
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

// workspace holds the minimizer's scratch vectors in one backing buffer.
// Minimize allocates a fresh one per call; MinimizeAnnealed reuses a
// single workspace across all temperature stages, eliminating the
// per-stage allocation churn on the allocator hot path.
type workspace struct {
	buf []float64
}

func (w *workspace) vectors(n int) (x, grad, gradPrev, gradTrial, trial, xPrev []float64) {
	if cap(w.buf) < 6*n {
		w.buf = make([]float64, 6*n)
	}
	b := w.buf[:6*n]
	return b[0:n], b[n : 2*n], b[2*n : 3*n], b[3*n : 4*n], b[4*n : 5*n], b[5*n : 6*n]
}

// Minimize minimizes obj over the box [lower, upper] starting from x0
// (projected into the box). lower, upper and x0 must share a length >= 1
// with lower <= upper componentwise.
func Minimize(obj Objective, lower, upper, x0 []float64, opts Options) (Result, error) {
	return minimize(obj, lower, upper, x0, opts, &workspace{})
}

func minimize(obj Objective, lower, upper, x0 []float64, opts Options, ws *workspace) (Result, error) {
	n := len(x0)
	if n == 0 {
		return Result{}, errors.New("convex: empty start point")
	}
	if len(lower) != n || len(upper) != n {
		return Result{}, fmt.Errorf("convex: bounds length %d/%d, want %d", len(lower), len(upper), n)
	}
	for i := range lower {
		if lower[i] > upper[i] {
			return Result{}, fmt.Errorf("convex: lower[%d]=%v > upper[%d]=%v", i, lower[i], i, upper[i])
		}
		if math.IsNaN(lower[i]) || math.IsNaN(upper[i]) {
			return Result{}, fmt.Errorf("convex: NaN bound at %d", i)
		}
	}
	o := opts.withDefaults()

	x, grad, gradPrev, gradTrial, trial, xPrev := ws.vectors(n)
	for i := range x {
		x[i] = clamp(x0[i], lower[i], upper[i])
	}

	evals := 0
	eval := func(pt []float64, g []float64) float64 {
		evals++
		v := obj.Eval(pt, g)
		if math.IsNaN(v) {
			panic("convex: objective returned NaN")
		}
		return v
	}

	fx := eval(x, grad)
	step := o.InitStep
	smallDecreases := 0 // consecutive iterations with negligible progress
	havePrev := false

	res := Result{X: x, Status: MaxIterReached}
	for iter := 1; iter <= o.MaxIter; iter++ {
		res.Iters = iter
		if o.StopCheck != nil && iter%stopCheckStride == 0 && o.StopCheck() {
			res.X, res.F, res.Evals = x, fx, evals
			return res, ErrStopped
		}

		// Projected-gradient stationarity: the box-constrained analogue
		// of ‖∇f‖∞ = 0.
		pgNorm := 0.0
		for i := range x {
			g := grad[i]
			if (x[i] <= lower[i] && g > 0) || (x[i] >= upper[i] && g < 0) {
				g = 0
			}
			if a := math.Abs(g); a > pgNorm {
				pgNorm = a
			}
		}
		if pgNorm < o.GradTol {
			res.Status = GradientConverged
			break
		}

		// Spectral (Barzilai-Borwein) trial step: step = sᵀs / sᵀz where
		// s = x - xPrev, z = grad - gradPrev. Adapts automatically to the
		// local curvature, which defeats the zigzag of plain steepest
		// descent on ill-conditioned or barely-smoothed objectives.
		if havePrev {
			sts, stz := 0.0, 0.0
			for i := range x {
				s := x[i] - xPrev[i]
				z := grad[i] - gradPrev[i]
				sts += s * s
				stz += s * z
			}
			if stz > 1e-300 && sts > 0 {
				step = clamp(sts/stz, 1e-12, 1e8)
			}
		}

		// Armijo backtracking on the projected step. The first trial is
		// evaluated with a fused value+gradient pass, which saves an
		// accepted first trial the second evaluation it would otherwise
		// pay just to obtain the gradient. Most iterations are such, but
		// they are not where the evaluations go: on the Strassen-128 solve
		// (16 967 iterations) 73 % accept the spectral step as it is, and
		// the 27 % that backtrack take ≈ 6 evaluations each — 69 % of all
		// evaluations, 2.35 per iteration overall.
		accepted := false
		gradReady := false
		var fNew float64
		for bt := 0; bt < o.MaxBacktracks; bt++ {
			for i := range trial {
				trial[i] = clamp(x[i]-step*grad[i], lower[i], upper[i])
			}
			// Sufficient decrease against the projected displacement.
			decr := 0.0
			moved := false
			for i := range trial {
				d := trial[i] - x[i]
				if d != 0 {
					moved = true
				}
				decr += grad[i] * d
			}
			if !moved {
				break
			}
			if bt == 0 {
				fNew = eval(trial, gradTrial)
			} else {
				fNew = eval(trial, nil)
			}
			if fNew <= fx+o.Armijo*decr {
				accepted = true
				gradReady = bt == 0
				break
			}
			step *= o.Backtrack
		}
		if !accepted {
			// No decrease along the projected direction: numerically
			// stationary on the box.
			res.Status = LineSearchStalled
			break
		}

		copy(xPrev, x)
		copy(gradPrev, grad)
		copy(x, trial)
		fPrev := fx
		fx = fNew
		if gradReady {
			grad, gradTrial = gradTrial, grad
		} else {
			// Accepted only after backtracking: one evaluation obtains
			// the gradient (its value pass equals fNew, already known).
			fx = eval(x, grad)
		}
		havePrev = true

		if fPrev-fx <= o.FTol*math.Max(1, math.Abs(fPrev)) {
			smallDecreases++
			if smallDecreases >= 8 {
				res.Status = ObjectiveConverged
				break
			}
		} else {
			smallDecreases = 0
		}
	}

	res.X = x
	res.F = fx
	res.Evals = evals
	return res, nil
}

// TempObjective is an objective parameterized by a smoothing temperature,
// typically a log-sum-exp softening of max terms that approaches the exact
// function as the temperature goes to zero.
type TempObjective interface {
	EvalAtTemp(temp float64, x []float64, grad []float64) float64
}

// TempFunc adapts a closure to TempObjective.
type TempFunc func(temp float64, x, grad []float64) float64

// EvalAtTemp implements TempObjective.
func (f TempFunc) EvalAtTemp(temp float64, x, grad []float64) float64 { return f(temp, x, grad) }

// AnnealOptions tunes MinimizeAnnealed.
type AnnealOptions struct {
	// StartTemp is the first smoothing temperature (default: 1).
	StartTemp float64
	// EndTemp is the final (smallest) temperature (default: 1e-4).
	EndTemp float64
	// Decay is the per-stage temperature multiplier in (0,1)
	// (default: 0.2).
	Decay float64
	// Inner configures the per-stage minimizer.
	Inner Options
	// OnStage, when non-nil, is called after every temperature stage
	// with the 0-based stage index, the stage temperature, and that
	// stage's Result (per-stage Iters/Evals, not cumulative). Returning
	// a non-nil error aborts the anneal and surfaces the error from
	// MinimizeAnnealed — the hook the allocator uses for context
	// cancellation and solver-convergence events. r.X aliases solver
	// scratch reused by later stages; copy it if retained.
	OnStage func(stage int, temp float64, r Result) error
}

func (a AnnealOptions) withDefaults() AnnealOptions {
	if a.StartTemp <= 0 {
		a.StartTemp = 1
	}
	if a.EndTemp <= 0 {
		a.EndTemp = 1e-4
	}
	if a.EndTemp > a.StartTemp {
		a.EndTemp = a.StartTemp
	}
	if a.Decay <= 0 || a.Decay >= 1 {
		a.Decay = 0.2
	}
	return a
}

// MinimizeAnnealed minimizes a temperature-smoothed convex objective by
// solving a sequence of decreasing-temperature stages, warm-starting each
// stage from the previous solution. The returned Result reflects the final
// stage at EndTemp; Iters and Evals aggregate across all stages. One
// scratch workspace and one objective closure are shared across every
// stage, so the whole anneal performs a constant number of allocations.
func MinimizeAnnealed(obj TempObjective, lower, upper, x0 []float64, opts AnnealOptions) (Result, error) {
	a := opts.withDefaults()
	x := x0
	var (
		ws    workspace
		temp  float64
		total Result
	)
	inner := Func(func(x, grad []float64) float64 { return obj.EvalAtTemp(temp, x, grad) })
	for stage := 0; ; stage++ {
		t := a.StartTemp * math.Pow(a.Decay, float64(stage))
		last := t <= a.EndTemp
		if last {
			t = a.EndTemp
		}
		temp = t
		res, err := minimize(inner, lower, upper, x, a.Inner, &ws)
		if err != nil {
			return Result{}, err
		}
		if a.OnStage != nil {
			if err := a.OnStage(stage, t, res); err != nil {
				return Result{}, err
			}
		}
		total.Iters += res.Iters
		total.Evals += res.Evals
		total.X = res.X
		total.F = res.F
		total.Status = res.Status
		x = res.X
		if last {
			return total, nil
		}
	}
}
