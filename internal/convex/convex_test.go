package convex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"paradigm/internal/expr"
)

func approx(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= tol*scale
}

// quadratic builds f(x) = Σ w_i (x_i - c_i)² as an Objective.
func quadratic(w, c []float64) Objective {
	return Func(func(x, grad []float64) float64 {
		f := 0.0
		for i := range x {
			d := x[i] - c[i]
			f += w[i] * d * d
			if grad != nil {
				grad[i] = 2 * w[i] * d
			}
		}
		return f
	})
}

func TestUnconstrainedQuadratic(t *testing.T) {
	w := []float64{1, 3, 0.5}
	c := []float64{2, -1, 4}
	lo := []float64{-10, -10, -10}
	hi := []float64{10, 10, 10}
	res, err := Minimize(quadratic(w, c), lo, hi, []float64{0, 0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged() {
		t.Fatalf("did not converge: %+v", res)
	}
	for i := range c {
		if !approx(res.X[i], c[i], 1e-5) {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], c[i])
		}
	}
	if res.F > 1e-9 {
		t.Fatalf("f = %v, want ~0", res.F)
	}
}

func TestActiveBoxConstraint(t *testing.T) {
	// Minimum of (x-5)² on [0,2] is at x=2.
	res, err := Minimize(quadratic([]float64{1}, []float64{5}),
		[]float64{0}, []float64{2}, []float64{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.X[0], 2, 1e-8) {
		t.Fatalf("x = %v, want 2", res.X[0])
	}
	if !res.Converged() {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestStartOutsideBoxIsProjected(t *testing.T) {
	res, err := Minimize(quadratic([]float64{1}, []float64{0}),
		[]float64{-1}, []float64{1}, []float64{100}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.X[0], 0, 1e-6) {
		t.Fatalf("x = %v, want 0", res.X[0])
	}
}

func TestIllConditionedQuadratic(t *testing.T) {
	// Condition number 1e4.
	w := []float64{1, 1e4}
	c := []float64{3, -2}
	res, err := Minimize(quadratic(w, c), []float64{-10, -10}, []float64{10, 10},
		[]float64{-5, 5}, Options{MaxIter: 20000, GradTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.X[0], 3, 1e-4) || !approx(res.X[1], -2, 1e-4) {
		t.Fatalf("x = %v, want [3 -2] (status %v, iters %d)", res.X, res.Status, res.Iters)
	}
}

func TestSmoothMaxObjectiveMatchesGridSearch(t *testing.T) {
	// f(p) = max(2/p, 0.5·p) in log space (the A_p-vs-C_p tension in
	// miniature): minimum where 2/p = p/2, i.e. p = 2, f = 1.
	var g expr.Graph
	m := g.SmoothMax(
		g.Monomial(2, map[int]float64{0: -1}),
		g.Monomial(0.5, map[int]float64{0: 1}),
	)
	ev := expr.NewEvaluator(&g)
	temp := 1e-4
	obj := Func(func(x, grad []float64) float64 {
		if grad == nil {
			return ev.Eval(m, x, temp)
		}
		return ev.EvalGrad(m, x, temp, grad)
	})
	res, err := Minimize(obj, []float64{0}, []float64{math.Log(64)}, []float64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := math.Exp(res.X[0])
	if !approx(p, 2, 1e-2) {
		t.Fatalf("argmin p = %v, want 2", p)
	}
	if !approx(res.F, 1, 1e-2) {
		t.Fatalf("min f = %v, want 1", res.F)
	}
}

// TestRandomPosynomialVsGrid compares the solver against brute-force grid
// search on random 2-variable posynomial objectives (smoothed max of a few
// monomials) over the box [1, 64]².
func TestRandomPosynomialVsGrid(t *testing.T) {
	const temp = 1e-3
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		var g expr.Graph
		nTerms := 2 + rng.Intn(3)
		ids := make([]expr.ID, 0, nTerms)
		for k := 0; k < nTerms; k++ {
			ids = append(ids, g.Monomial(0.2+2*rng.Float64(), map[int]float64{
				0: float64(rng.Intn(5)-2) / 2,
				1: float64(rng.Intn(5)-2) / 2,
			}))
		}
		root := g.SmoothMax(g.Sum(ids...), g.Monomial(0.1+rng.Float64(), map[int]float64{0: 1, 1: 1}))
		ev := expr.NewEvaluator(&g)
		obj := TempFunc(func(tt float64, x, grad []float64) float64 {
			if grad == nil {
				return ev.Eval(root, x, tt)
			}
			return ev.EvalGrad(root, x, tt, grad)
		})
		lo := []float64{0, 0}
		hi := []float64{math.Log(64), math.Log(64)}
		res, err := MinimizeAnnealed(obj, lo, hi, []float64{1, 1},
			AnnealOptions{EndTemp: temp, Inner: Options{MaxIter: 5000}})
		if err != nil {
			return false
		}
		// Brute-force grid.
		best := math.Inf(1)
		const steps = 200
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				x := []float64{hi[0] * float64(i) / steps, hi[1] * float64(j) / steps}
				if v := ev.Eval(root, x, temp); v < best {
					best = v
				}
			}
		}
		// Solver must match or beat the grid up to grid resolution.
		return res.F <= best*(1+5e-3)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxIter != 2000 || o.GradTol != 1e-8 || o.InitStep != 1.0 ||
		o.Backtrack != 0.5 || o.Armijo != 1e-4 || o.MaxBacktracks != 60 || o.FTol != 1e-12 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	custom := Options{MaxIter: 5, GradTol: 1, FTol: 1, InitStep: 2, Backtrack: 0.25, Armijo: 0.5, MaxBacktracks: 3}
	got := custom.withDefaults()
	if got.MaxIter != custom.MaxIter || got.GradTol != custom.GradTol || got.FTol != custom.FTol ||
		got.InitStep != custom.InitStep || got.Backtrack != custom.Backtrack ||
		got.Armijo != custom.Armijo || got.MaxBacktracks != custom.MaxBacktracks {
		t.Fatalf("custom options were overridden: %+v", got)
	}
}

func TestErrorCases(t *testing.T) {
	obj := quadratic([]float64{1}, []float64{0})
	if _, err := Minimize(obj, nil, nil, nil, Options{}); err == nil {
		t.Fatal("want error for empty x0")
	}
	if _, err := Minimize(obj, []float64{0}, []float64{0, 1}, []float64{0}, Options{}); err == nil {
		t.Fatal("want error for bounds length mismatch")
	}
	if _, err := Minimize(obj, []float64{2}, []float64{1}, []float64{0}, Options{}); err == nil {
		t.Fatal("want error for inverted bounds")
	}
	if _, err := Minimize(obj, []float64{math.NaN()}, []float64{1}, []float64{0}, Options{}); err == nil {
		t.Fatal("want error for NaN bound")
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{GradientConverged, ObjectiveConverged, MaxIterReached, LineSearchStalled, Status(99)} {
		if s.String() == "" {
			t.Fatalf("empty status string for %d", int(s))
		}
	}
}

func TestDegenerateBoxSinglePoint(t *testing.T) {
	// lower == upper: the only feasible point is returned immediately.
	res, err := Minimize(quadratic([]float64{1}, []float64{5}),
		[]float64{2}, []float64{2}, []float64{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] != 2 {
		t.Fatalf("x = %v, want 2", res.X[0])
	}
	if !res.Converged() {
		t.Fatalf("status = %v", res.Status)
	}
}

func BenchmarkMinimizeQuadratic32(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 32
	w := make([]float64, n)
	c := make([]float64, n)
	lo := make([]float64, n)
	hi := make([]float64, n)
	x0 := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = 0.5 + rng.Float64()*10
		c[i] = rng.NormFloat64() * 3
		lo[i], hi[i] = -10, 10
	}
	obj := quadratic(w, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Minimize(obj, lo, hi, x0, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// quartic builds f(x) = Σ w_i (x_i - c_i)⁴: its Hessian vanishes at the
// minimum, so even a Newton-type method only closes in linearly and an
// unreachable tolerance keeps it iterating for hundreds of iterations.
func quartic(w, c []float64) Objective {
	return Func(func(x, grad []float64) float64 {
		f := 0.0
		for i := range x {
			d := x[i] - c[i]
			f += w[i] * d * d * d * d
			if grad != nil {
				grad[i] = 4 * w[i] * d * d * d
			}
		}
		return f
	})
}

// TestIterationsDoNotAllocate: what a call allocates (the workspace and
// its closures) does not grow with the iterations it runs — the ring of
// correction pairs lives in the workspace.
func TestIterationsDoNotAllocate(t *testing.T) {
	n := 8
	w, c, lo, hi, x0 := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range w {
		w[i], c[i], lo[i], hi[i] = float64(i+1), 3, -10, 2.5+float64(i%2) // every other one ends on its bound
	}
	obj := quartic(w, c)
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(20, func() {
			res, err := Minimize(obj, lo, hi, x0, Options{MaxIter: iters, GradTol: 1e-300, FTol: 1e-300})
			if err != nil || res.Iters != iters {
				t.Fatalf("ran %d of %d iterations, err %v", res.Iters, iters, err)
			}
		})
	}
	if few, many := allocs(3), allocs(30); few != many {
		t.Fatalf("%v allocations for 3 iterations, %v for 30", few, many)
	}
}
