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

// Options tunes refMinimize. The zero value selects sensible defaults.
type Options struct {
	// MaxIter caps outer iterations (default 2000).
	MaxIter int
	// GradTol stops when the projected-gradient infinity norm falls below
	// it (default 1e-8).
	GradTol float64
	// FTol stops when the relative objective decrease over an iteration
	// falls below it (default 1e-12).
	FTol float64
	// InitStep is the first gradient-step length (default 1.0).
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

// The reference's own stop reasons, which MinimizeEpigraph never reports.
const (
	// GradientConverged: projected gradient norm below GradTol.
	GradientConverged Status = Stepped + 1 + iota
	// ObjectiveConverged: relative objective decrease below FTol.
	ObjectiveConverged
)

// refMinimize is the smoothed minimizer the allocator shipped before its
// exact solve: spectral (Barzilai-Borwein) projected gradient with Armijo
// halving, kept verbatim as the reference the differential tests hold the
// interior-point method to (the refMul pattern). It converges to the
// minimum of the smoothed objective, only slowly — on Strassen-128 at
// p=64 it spends 39 871 evaluations and ends three of nine temperature
// stages at the iteration cap — so the exact solve must land no higher in
// Φ.
func refMinimize(obj Objective, lower, upper, x0 []float64, opts Options) (Result, error) {
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

	buf := make([]float64, 6*n)
	x, grad, gradPrev, gradTrial, trial, xPrev := buf[0:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n], buf[4*n:5*n], buf[5*n:6*n]
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
// a log-sum-exp softening of max terms that approaches the exact function
// as the temperature goes to zero.
type TempObjective interface {
	EvalAtTemp(temp float64, x []float64, grad []float64) float64
}

// TempFunc adapts a closure to TempObjective.
type TempFunc func(temp float64, x, grad []float64) float64

// EvalAtTemp implements TempObjective.
func (f TempFunc) EvalAtTemp(temp float64, x, grad []float64) float64 { return f(temp, x, grad) }

// AnnealOptions tunes refMinimizeAnnealed.
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
	// a non-nil error aborts the anneal.
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

// refMinimizeAnnealed is the temperature ladder the allocator annealed
// down before its exact solve, over refMinimize: it solves a sequence of
// decreasing-temperature stages, warm-starting each from the previous
// one's solution. The returned Result reflects the final stage at
// EndTemp; Iters and Evals aggregate across all stages.
func refMinimizeAnnealed(obj TempObjective, lower, upper, x0 []float64, opts AnnealOptions) (Result, error) {
	a := opts.withDefaults()
	x := x0
	var (
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
		res, err := refMinimize(inner, lower, upper, x, a.Inner)
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
