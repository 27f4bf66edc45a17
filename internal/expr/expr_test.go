package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= tol*scale
}

func TestConstEval(t *testing.T) {
	var g Graph
	id := g.Const(3.25)
	ev := NewEvaluator(&g)
	if got := ev.Eval(id, nil, 0); got != 3.25 {
		t.Fatalf("Const eval = %v, want 3.25", got)
	}
}

func TestMonomialEval(t *testing.T) {
	var g Graph
	// 2 · p0^2 · p1^-1 at p0=3, p1=2 -> 2·9/2 = 9
	id := g.Monomial(2, []int{0, 1}, []float64{2, -1})
	ev := NewEvaluator(&g)
	x := []float64{math.Log(3), math.Log(2)}
	if got := ev.Eval(id, x, 0); !almostEqual(got, 9, 1e-12) {
		t.Fatalf("Monomial eval = %v, want 9", got)
	}
}

func TestVarEval(t *testing.T) {
	var g Graph
	id := g.Var(1)
	ev := NewEvaluator(&g)
	x := []float64{0, math.Log(7)}
	if got := ev.Eval(id, x, 0); !almostEqual(got, 7, 1e-12) {
		t.Fatalf("Var eval = %v, want 7", got)
	}
}

func TestSumScaleMul(t *testing.T) {
	var g Graph
	a := g.Const(2)
	b := g.Var(0)       // p0
	s := g.Sum(a, b)    // 2 + p0
	sc := g.Scale(3, s) // 6 + 3p0
	m := g.Mul(sc, b)   // (6 + 3p0)·p0
	ev := NewEvaluator(&g)
	x := []float64{math.Log(4)}
	if got := ev.Eval(m, x, 0); !almostEqual(got, (6+12)*4, 1e-12) {
		t.Fatalf("Mul eval = %v, want 72", got)
	}
}

func TestSumSingleChildCollapses(t *testing.T) {
	var g Graph
	a := g.Const(5)
	if got := g.Sum(a); got != a {
		t.Fatalf("Sum of one child should return the child id")
	}
	if got := g.Scale(1, a); got != a {
		t.Fatalf("Scale by 1 should return the child id")
	}
}

func TestHardMax(t *testing.T) {
	var g Graph
	a := g.Const(1)
	b := g.Const(5)
	c := g.Const(3)
	m := g.SmoothMax(a, b, c)
	ev := NewEvaluator(&g)
	if got := ev.Eval(m, nil, 0); got != 5 {
		t.Fatalf("hard max = %v, want 5", got)
	}
}

func TestSmoothMaxUpperBoundsMax(t *testing.T) {
	var g Graph
	a := g.Const(1)
	b := g.Const(5)
	m := g.SmoothMax(a, b)
	ev := NewEvaluator(&g)
	for _, temp := range []float64{1e-3, 0.1, 1, 10} {
		v := ev.Eval(m, nil, temp)
		if v < 5 {
			t.Fatalf("smooth max at temp %v = %v, must be >= hard max 5", temp, v)
		}
		// LSE overshoot is bounded by temp·log(k).
		if v > 5+temp*math.Log(2)+1e-12 {
			t.Fatalf("smooth max at temp %v = %v exceeds bound %v", temp, v, 5+temp*math.Log(2))
		}
	}
}

func TestSmoothMaxConvergesToMax(t *testing.T) {
	var g Graph
	a := g.Var(0)
	b := g.Const(2)
	m := g.SmoothMax(a, b)
	ev := NewEvaluator(&g)
	x := []float64{math.Log(3)}
	prev := math.Inf(1)
	for _, temp := range []float64{1, 0.1, 0.01, 0.001} {
		v := ev.Eval(m, x, temp)
		if v > prev+1e-15 {
			t.Fatalf("smooth max not monotone in temperature: %v then %v", prev, v)
		}
		prev = v
	}
	if !almostEqual(prev, 3, 1e-3) {
		t.Fatalf("smooth max at low temp = %v, want ~3", prev)
	}
}

// buildRandomGraph constructs a random expression DAG over nvars variables
// and returns its root. Structure mixes all node kinds.
func buildRandomGraph(rng *rand.Rand, g *Graph, nvars int) ID {
	ids := make([]ID, 0, 16)
	for v := 0; v < nvars; v++ {
		ids = append(ids, g.Var(v))
	}
	ids = append(ids, g.Const(0.5+rng.Float64()))
	for step := 0; step < 12; step++ {
		switch rng.Intn(5) {
		case 0:
			var vars []int
			var exps []float64
			for v := 0; v < nvars; v++ {
				if rng.Intn(2) == 0 {
					vars, exps = append(vars, v), append(exps, float64(rng.Intn(5))-2)
				}
			}
			ids = append(ids, g.Monomial(0.1+rng.Float64(), vars, exps))
		case 1:
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			ids = append(ids, g.Sum(a, b))
		case 2:
			ids = append(ids, g.Scale(rng.Float64()*3, ids[rng.Intn(len(ids))]))
		case 3:
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			ids = append(ids, g.Mul(a, b))
		case 4:
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			c := ids[rng.Intn(len(ids))]
			ids = append(ids, g.SmoothMax(a, b, c))
		}
	}
	return ids[len(ids)-1]
}

// TestGradientMatchesFiniteDifference checks reverse-mode gradients against
// central finite differences on random DAGs at positive temperature
// (where the objective is smooth).
func TestGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nvars = 4
	for trial := 0; trial < 200; trial++ {
		var g Graph
		root := buildRandomGraph(rng, &g, nvars)
		ev := NewEvaluator(&g)
		x := make([]float64, nvars)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		temp := 0.05 + rng.Float64()
		grad := make([]float64, nvars)
		ev.EvalGrad(root, x, temp, grad)
		const h = 1e-6
		for i := 0; i < nvars; i++ {
			xp := append([]float64(nil), x...)
			xm := append([]float64(nil), x...)
			xp[i] += h
			xm[i] -= h
			fd := (ev.Eval(root, xp, temp) - ev.Eval(root, xm, temp)) / (2 * h)
			if !almostEqual(grad[i], fd, 1e-4) {
				t.Fatalf("trial %d var %d: grad %v vs finite diff %v", trial, i, grad[i], fd)
			}
		}
	}
}

// TestMonomialConvexityInLogSpace samples the midpoint convexity inequality
// f((x+y)/2) <= (f(x)+f(y))/2 for sums of monomials — the property the
// whole allocation approach rests on.
func TestMonomialConvexityInLogSpace(t *testing.T) {
	type probe struct {
		E0, E1 int8 // exponents in [-128,127]; scaled down below
		X0, X1 uint8
		Y0, Y1 uint8
	}
	f := func(p probe) bool {
		var g Graph
		e0 := float64(p.E0) / 16
		e1 := float64(p.E1) / 16
		id := g.Sum(
			g.Monomial(1.5, []int{0, 1}, []float64{e0, e1}),
			g.Monomial(0.5, []int{0, 1}, []float64{-e1, e0}),
		)
		ev := NewEvaluator(&g)
		x := []float64{float64(p.X0)/64 - 2, float64(p.X1)/64 - 2}
		y := []float64{float64(p.Y0)/64 - 2, float64(p.Y1)/64 - 2}
		mid := []float64{(x[0] + y[0]) / 2, (x[1] + y[1]) / 2}
		fx := ev.Eval(id, x, 0)
		fy := ev.Eval(id, y, 0)
		fm := ev.Eval(id, mid, 0)
		return fm <= (fx+fy)/2+1e-9*(1+fx+fy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSmoothMaxConvexity checks midpoint convexity of SmoothMax over
// convex children in log space.
func TestSmoothMaxConvexity(t *testing.T) {
	type probe struct {
		X0, X1, Y0, Y1 uint8
		T              uint8
	}
	f := func(p probe) bool {
		var g Graph
		m := g.SmoothMax(
			g.Monomial(1, []int{0}, []float64{1}),
			g.Monomial(2, []int{0, 1}, []float64{-1, 1}),
			g.Monomial(0.5, []int{1}, []float64{-1}),
		)
		ev := NewEvaluator(&g)
		temp := 0.01 + float64(p.T)/64
		x := []float64{float64(p.X0)/64 - 2, float64(p.X1)/64 - 2}
		y := []float64{float64(p.Y0)/64 - 2, float64(p.Y1)/64 - 2}
		mid := []float64{(x[0] + y[0]) / 2, (x[1] + y[1]) / 2}
		fx := ev.Eval(m, x, temp)
		fy := ev.Eval(m, y, temp)
		fm := ev.Eval(m, mid, temp)
		return fm <= (fx+fy)/2+1e-9*(1+fx+fy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHardMaxSubgradient(t *testing.T) {
	var g Graph
	a := g.Var(0)   // p0
	b := g.Const(2) // constant branch
	m := g.SmoothMax(a, b)
	ev := NewEvaluator(&g)
	grad := make([]float64, 1)
	// p0 = 4 > 2: derivative flows through Var branch; d p0/d x0 = p0.
	ev.EvalGrad(m, []float64{math.Log(4)}, 0, grad)
	if !almostEqual(grad[0], 4, 1e-12) {
		t.Fatalf("subgradient = %v, want 4", grad[0])
	}
	// p0 = 1 < 2: max is the constant, zero gradient.
	ev.EvalGrad(m, []float64{0}, 0, grad)
	if grad[0] != 0 {
		t.Fatalf("subgradient = %v, want 0", grad[0])
	}
}

// TestEvaluatorReuseAfterGraphGrowth grows a graph between calls on one
// evaluator.
func TestEvaluatorReuseAfterGraphGrowth(t *testing.T) {
	var g Graph
	a := g.Var(0)
	ev := NewEvaluator(&g)
	if got := ev.Eval(a, []float64{0}, 0); got != 1 {
		t.Fatalf("eval = %v, want 1", got)
	}
	b := g.Sum(a, g.Const(1))
	if got := ev.Eval(b, []float64{0}, 0); got != 2 {
		t.Fatalf("eval after growth = %v, want 2", got)
	}

	// Growth regrows the scratch: every value and gradient after it is,
	// bit for bit, a fresh evaluator's.
	same := func(root ID, x []float64, what string) {
		t.Helper()
		fresh := NewEvaluator(&g)
		got, want := make([]float64, len(x)), make([]float64, len(x))
		if v, w := ev.EvalGrad(root, x, 0.1, got), fresh.EvalGrad(root, x, 0.1, want); math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s: value %v, fresh evaluator %v", what, v, w)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: ∂/∂x[%d] = %v, fresh evaluator %v", what, i, got[i], want[i])
			}
		}
	}
	m1 := g.Monomial(1.5, []int{0, 1}, []float64{1, -0.5})
	m2 := g.Monomial(0.5, []int{0, 1}, []float64{1, -0.5})
	root := g.SmoothMax(m1, g.Sum(m2, g.Const(0.25)))
	x := []float64{0.3, 0.9, -0.2}
	same(root, x, "before growth")

	c := g.Monomial(2, []int{0, 1}, []float64{1, -0.5})
	root = g.SmoothMax(root, g.Mul(c, m1))
	same(root, x, "after growth")
	same(m1, x, "after growth, an old root")

	// Growth that brings a new variable with it.
	root = g.Sum(root, g.Monomial(0.75, []int{2}, []float64{2}))
	same(root, x, "after a new variable")
}

// TestEvalDoesNotAllocate is the steady-state allocation gate: once an
// evaluator has its scratch, neither call allocates.
func TestEvalDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var g Graph
	const nvars = 6
	roots := make([]ID, 0, 16)
	for i := 0; i < 16; i++ {
		roots = append(roots, buildRandomGraph(rng, &g, nvars))
	}
	root := g.SmoothMax(roots...)
	ev := NewEvaluator(&g)
	xs := [2][]float64{make([]float64, nvars), make([]float64, nvars)}
	for i := 0; i < nvars; i++ {
		xs[0][i], xs[1][i] = rng.Float64(), rng.Float64()
	}
	grad := make([]float64, nvars)
	ev.EvalGrad(root, xs[0], 0.1, grad)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		i++
		ev.Eval(root, xs[i&1], 0.1)
		ev.EvalGrad(root, xs[i&1], 0.1, grad)
		ev.EvalGrad(root, xs[(i+1)&1], 0.1, grad)
	}); n != 0 {
		t.Fatalf("steady-state Eval/EvalGrad allocate %v times per run, want 0", n)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"nan const", func() { var g Graph; g.Const(math.NaN()) }},
		{"negative monomial coeff", func() { var g Graph; g.Monomial(-1, nil, nil) }},
		{"negative scale", func() { var g Graph; s := g.Const(1); g.Scale(-2, s) }},
		{"empty sum", func() { var g Graph; g.Sum() }},
		{"empty smoothmax", func() { var g Graph; g.SmoothMax() }},
		{"bad child id", func() { var g Graph; g.Scale(2, ID(7)) }},
		{"negative var index", func() { var g Graph; g.Monomial(1, []int{-1}, []float64{2}) }},
		{"monomial length mismatch", func() { var g Graph; g.Monomial(1, []int{0, 1}, []float64{2}) }},
		{"short x", func() {
			var g Graph
			id := g.Var(3)
			NewEvaluator(&g).Eval(id, []float64{0}, 0)
		}},
		{"short grad", func() {
			var g Graph
			id := g.Var(1)
			NewEvaluator(&g).EvalGrad(id, []float64{0, 0}, 0, make([]float64, 1))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

// TestMonomialRepeatedVariable: a variable listed twice multiplies its
// powers, p^a·p^b = p^{a+b}, and powers that cancel leave the constant.
func TestMonomialRepeatedVariable(t *testing.T) {
	var g Graph
	m := g.Monomial(3, []int{1, 0, 1}, []float64{-1, 0.5, -1})
	same := g.Monomial(3, []int{0, 1}, []float64{0.5, -2})
	c := g.Monomial(2, []int{0, 0}, []float64{1, -1})
	ev := NewEvaluator(&g)
	x := []float64{0.7, 1.3}
	if got, want := ev.Eval(m, x, 0), ev.Eval(same, x, 0); got != want {
		t.Fatalf("3·p0^0.5·p1^-1·p1^-1 = %v, want 3·p0^0.5·p1^-2 = %v", got, want)
	}
	if want := 3 * math.Exp(0.5*0.7-2*1.3); math.Abs(ev.Eval(m, x, 0)-want) > 1e-15*want {
		t.Fatalf("repeated variable: %v, want %v", ev.Eval(m, x, 0), want)
	}
	if got := ev.Eval(c, x, 0); got != 2 {
		t.Fatalf("2·p0·p0^-1 = %v, want the constant 2", got)
	}
	if g.nodes[c].kind != kConst {
		t.Fatalf("cancelled monomial is kind %v, want a constant", g.nodes[c].kind)
	}
}

func TestZeroCoefficientMonomialIsConstantZero(t *testing.T) {
	var g Graph
	id := g.Monomial(0, []int{0}, []float64{3})
	ev := NewEvaluator(&g)
	grad := make([]float64, 1)
	v := ev.EvalGrad(id, []float64{1}, 0, grad)
	if v != 0 || grad[0] != 0 {
		t.Fatalf("zero monomial: value %v grad %v, want 0, 0", v, grad[0])
	}
	// It is the constant 0, not 0·exp(3x): where the exponential
	// overflows the latter would be 0·Inf = NaN.
	if v := ev.EvalGrad(id, []float64{1000}, 0, grad); v != 0 || grad[0] != 0 {
		t.Fatalf("zero monomial where exp overflows: value %v grad %v, want 0, 0", v, grad[0])
	}
	if g.NumVars() != 0 {
		t.Fatalf("zero monomial references %d variables, want 0", g.NumVars())
	}
}

func BenchmarkEvalGradMediumDAG(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var g Graph
	const nvars = 32
	roots := make([]ID, 0, 64)
	for i := 0; i < 64; i++ {
		roots = append(roots, buildRandomGraph(rng, &g, nvars))
	}
	root := g.SmoothMax(roots...)
	ev := NewEvaluator(&g)
	x := make([]float64, nvars)
	grad := make([]float64, nvars)
	y := make([]float64, nvars)
	for i := range x {
		x[i], y[i] = rng.Float64(), rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Two points in turn: a repeat at one point would be answered
		// from the forward memo and time the backward sweep alone.
		ev.EvalGrad(root, x, 0.1, grad)
		x, y = y, x
	}
}
