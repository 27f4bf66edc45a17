// Package convex implements the allocator's convex minimizers.
//
// The paper's allocation step (Section 2) requires the exact minimum of a
// convex program: Φ = max(A_p, C_p) over log-processor variables inside the
// box [0, ln p]^n. Go has no convex-programming library, so this package
// provides two solvers sized for the problem class:
//
//   - MinimizeEpigraph (ipm.go, sparse.go) solves the program exactly: in
//     epigraph form (expr.Graph.Epigraph) it is a geometric program, and a
//     primal-dual interior-point method with a sparse Cholesky factor stops
//     on a certified duality gap of 1e-9 in log units. It is the
//     allocator's default.
//   - Minimize is a projected L-BFGS minimizer for smooth convex objectives
//     on a box — an active set of bound-pinned variables, the two-loop
//     recursion over the free ones, projected Armijo backtracking — and
//     MinimizeAnnealed runs it down a ladder of smoothing temperatures,
//     warm-starting each stage, toward a non-smooth max. The ADMM
//     backend's local solves use it.
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
	// InitStep is the gradient-step length before any curvature is known
	// (default 1.0); quasi-Newton steps always start from 1.
	InitStep float64
	// Backtrack is the step shrink factor in (0,1) (default 0.5).
	Backtrack float64
	// Armijo is the sufficient-decrease constant in (0,1) (default 1e-4).
	Armijo float64
	// MaxBacktracks caps line-search halvings per iteration (default 60).
	MaxBacktracks int
}

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
	// GapConverged: the interior-point method's duality gap is certified
	// below its tolerance (MinimizeEpigraph).
	GapConverged
	// Stepped marks an interior-point iterate reported mid-solve, before
	// any stop rule fired.
	Stepped
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
	// Evals counts objective evaluations — every call into the
	// objective, line search included, counts exactly once whether or
	// not a gradient was requested. A unit step that is accepted costs
	// one (value and gradient fused), a shorter accepted step two. For
	// MinimizeEpigraph it counts evaluations of every constraint at one
	// point, values and gradients together.
	Evals  int
	Status Status
	// Gap is MinimizeEpigraph's certificate, in the units of its
	// objective (a log): F, the log of the root's exact value at X, is
	// within Gap of the optimum. Zero for the other minimizers.
	Gap float64
}

// Converged reports whether the stop was a convergence criterion rather
// than an iteration cap.
func (r Result) Converged() bool {
	return r.Status == GradientConverged || r.Status == ObjectiveConverged || r.Status == LineSearchStalled || r.Status == GapConverged
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

// lbfgsMem is how many (s, y) correction pairs the quasi-Newton model
// keeps. A smoothed max is nearly nonsmooth at the cold end of the ladder,
// where the model earns its keep by not forgetting a stiff direction: on
// the 30-configuration Strassen sweep (35 variables) evaluations fall from
// 218 k at 10 pairs to 110 k at 32 and 44 k at 64, with the two-loop
// recursion still cheaper than one evaluation of Φ (DESIGN §12).
const lbfgsMem = 64

// minCurvature is the least sᵀy/yᵀy a pair must show to enter the model:
// convexity gives sᵀy >= 0, and a flat step carries no information.
const minCurvature = 1e-10

// workspace holds the minimizer's scratch in one backing buffer — five
// vectors, the ring of correction pairs, the two-loop coefficients — and
// the ring's live window [lo, hi). Minimize allocates a fresh one per
// call; MinimizeAnnealed shares one across all temperature stages, so no
// stage or iteration allocates and each stage inherits the curvature
// model of the one before it along with its solution.
type workspace struct {
	buf    []float64
	lo, hi int
}

func (w *workspace) vectors(n int) (x, grad, gradTrial, trial, dir, pairs, coef []float64) {
	size := (5+2*lbfgsMem)*n + 2*lbfgsMem
	if len(w.buf) != size {
		w.buf, w.lo, w.hi = make([]float64, size), 0, 0
	}
	b := w.buf
	return b[0:n], b[n : 2*n], b[2*n : 3*n], b[3*n : 4*n], b[4*n : 5*n], b[5*n : size-2*lbfgsMem], b[size-2*lbfgsMem:]
}

// Minimize minimizes obj over the box [lower, upper] starting from x0
// (projected into the box). lower, upper and x0 must share a length >= 1
// with lower <= upper componentwise.
func Minimize(obj Objective, lower, upper, x0 []float64, opts Options) (Result, error) {
	return minimize(obj, lower, upper, x0, opts, &workspace{})
}

// minimize is a limited-memory projected quasi-Newton method. Each
// iteration pins the variables that sit on a bound with the gradient
// pointing out of the box, builds the L-BFGS direction −H·∇f over the
// free ones (lbfgsDirection) and backtracks from step 1 along the
// projected path x(t) = clamp(x + t·d) under the Armijo test against
// ∇fᵀ(x(t) − x). The unit step is evaluated with its gradient, shorter
// trials for their value only; an accepted shorter one gets one fused
// value+gradient pass. When the direction is not a descent direction, or
// its line search finds no decrease, the memory is dropped and the
// iteration redone as a spectral steepest-descent step; only when that
// stalls too is the point numerically stationary on the box.
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

	// x0 may alias the workspace (a stage starts where the previous one
	// ended): it is read before anything else is written.
	x, grad, gradTrial, trial, dir, pairs, coef := ws.vectors(n)
	for i := range x {
		x[i] = clamp(x0[i], lower[i], upper[i])
	}
	// The free-variable indices stay on the stack at the paper's sizes
	// (12 and 35 variables); beyond, one allocation per call.
	var few [64]int
	idx := few[:0]
	if n > len(few) {
		idx = make([]int, 0, n)
	}
	// Correction pair k of the ring: s = Δx, y = Δ∇f.
	pair := func(k int) (s, y []float64) {
		at := 2 * n * (k % lbfgsMem)
		return pairs[at : at+n], pairs[at+n : at+2*n]
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
	step := o.InitStep  // steepest-descent step length, spectral once a pair exists
	smallDecreases := 0 // consecutive iterations with negligible progress

	res := Result{X: x, Status: MaxIterReached}
	for iter := 1; iter <= o.MaxIter; iter++ {
		res.Iters = iter
		// Free variables are those not on a bound with the gradient pointing
		// out of the box (there the preset gradient step is projected away);
		// the gradient's largest component over them is the box's ‖∇f‖∞.
		free, pgNorm := idx[:0], 0.0
		for i, g := range grad {
			dir[i] = -step * g
			if !(x[i] <= lower[i] && g > 0) && !(x[i] >= upper[i] && g < 0) {
				free = append(free, i)
				pgNorm = math.Max(pgNorm, math.Abs(g))
			}
		}
		if pgNorm < o.GradTol {
			res.Status = GradientConverged
			break
		}
		// A free variable that the quasi-Newton step would carry onto the
		// bound its own gradient pushes it toward leaves the model and
		// keeps the gradient step, which the projection lands on the
		// bound. Left coupled to the others it creeps toward the bound in
		// ever shorter steps, the rest of the direction being uphill once
		// it is clamped (Bertsekas' projected Newton, the step as its ε).
		quasi := lbfgsDirection(dir, grad, free, pair, ws.lo, ws.hi, coef)
		if quasi {
			kept := free[:0]
			for _, i := range free {
				if g := grad[i]; (g > 0 && x[i]+dir[i] <= lower[i]) || (g < 0 && x[i]+dir[i] >= upper[i]) {
					dir[i] = -step * g
				} else {
					kept = append(kept, i)
				}
			}
			if len(kept) < len(free) {
				quasi = lbfgsDirection(dir, grad, kept, pair, ws.lo, ws.hi, coef)
			}
		}
		var fNew, t float64
		accepted, gradReady := false, false
		for {
			if !quasi {
				for i, g := range grad {
					dir[i] = -step * g
				}
			}
			t = 1
			for bt := 0; bt < o.MaxBacktracks; bt++ {
				// Sufficient decrease against the projected displacement.
				decr, moved := 0.0, false
				for i := range trial {
					trial[i] = clamp(x[i]+t*dir[i], lower[i], upper[i])
					moved = moved || trial[i] != x[i]
					decr += grad[i] * (trial[i] - x[i])
				}
				if !moved {
					break
				}
				if decr < 0 {
					// The unit step is the one a quasi-Newton direction
					// usually keeps, so it is evaluated with its gradient.
					if gradReady = t == 1; gradReady {
						fNew = eval(trial, gradTrial)
					} else {
						fNew = eval(trial, nil)
					}
					if fNew <= fx+o.Armijo*decr {
						accepted = true
						break
					}
				}
				t *= o.Backtrack
			}
			if accepted || !quasi {
				break
			}
			quasi, ws.lo = false, ws.hi
		}
		if !accepted {
			res.Status = LineSearchStalled
			break
		}
		if !quasi {
			step *= t
		}

		fPrev := fx
		fx = fNew
		if !gradReady {
			// Accepted only after backtracking: one evaluation obtains
			// the gradient (its value pass equals fNew, already known).
			fx = eval(trial, gradTrial)
		}
		ss, sy, yy := 0.0, 0.0, 0.0
		for i := range x {
			s, y := trial[i]-x[i], gradTrial[i]-grad[i]
			ss += s * s
			sy += s * y
			yy += y * y
		}
		if sy > minCurvature*yy && sy > 1e-300 {
			step = clamp(ss/sy, 1e-12, 1e8)
			s, y := pair(ws.hi)
			for i := range x {
				s[i], y[i] = trial[i]-x[i], gradTrial[i]-grad[i]
			}
			if ws.hi++; ws.hi-ws.lo > lbfgsMem {
				ws.lo++
			}
		}
		x, trial = trial, x
		grad, gradTrial = gradTrial, grad

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

	res.X, res.F, res.Evals = x, fx, evals
	return res, nil
}

// lbfgsDirection writes the quasi-Newton direction −H·grad into the free
// components of dir (the others are left alone) by the two-loop recursion
// over the live pairs, every inner product restricted to the free
// coordinates: the model is the inverse of the reduced Hessian, and a pair
// whose reduced curvature is not positive is skipped. It reports false
// when no pair was usable or the result is not a descent direction.
func lbfgsDirection(dir, grad []float64, free []int, pair func(int) (s, y []float64), lo, hi int, coef []float64) bool {
	for _, i := range free {
		dir[i] = grad[i]
	}
	alpha, curv := coef[:lbfgsMem], coef[lbfgsMem:]
	gamma := 0.0
	for k := hi - 1; k >= lo; k-- {
		s, y := pair(k)
		sy, sq, yy := 0.0, 0.0, 0.0
		for _, i := range free {
			sy += s[i] * y[i]
			sq += s[i] * dir[i]
			yy += y[i] * y[i]
		}
		if sy <= minCurvature*yy {
			sy = 0
		}
		curv[k%lbfgsMem] = sy
		if sy == 0 {
			continue
		}
		if gamma == 0 {
			gamma = sy / yy
		}
		a := sq / sy
		alpha[k%lbfgsMem] = a
		for _, i := range free {
			dir[i] -= a * y[i]
		}
	}
	if gamma == 0 {
		return false
	}
	for _, i := range free {
		dir[i] *= gamma
	}
	for k := lo; k < hi; k++ {
		sy := curv[k%lbfgsMem]
		if sy == 0 {
			continue
		}
		s, y := pair(k)
		yr := 0.0
		for _, i := range free {
			yr += y[i] * dir[i]
		}
		b := alpha[k%lbfgsMem] - yr/sy
		for _, i := range free {
			dir[i] += b * s[i]
		}
	}
	slope := 0.0
	for _, i := range free {
		dir[i] = -dir[i]
		slope += grad[i] * dir[i]
	}
	return slope < 0
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
// from the previous one's solution and curvature model. The returned
// Result reflects the final stage at EndTemp; Iters and Evals aggregate
// across all stages. One scratch workspace and one objective closure serve
// every stage, so the anneal performs a constant number of allocations.
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
