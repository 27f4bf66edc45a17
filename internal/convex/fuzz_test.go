package convex

import (
	"errors"
	"math"
	"slices"
	"testing"

	"paradigm/internal/expr"
)

// boxProblem is one fuzz-decoded minimization: a convex objective, a box
// (possibly degenerate in some or all coordinates) and a start point that
// may lie on or outside it.
type boxProblem struct {
	obj          Objective
	lower, upper []float64
	x0           []float64
}

// byteStream hands out the fuzz input one byte at a time, zeros once it
// runs dry, so every input decodes to a valid problem.
type byteStream struct {
	data []byte
	at   int
}

func (s *byteStream) next() byte {
	if s.at >= len(s.data) {
		return 0
	}
	b := s.data[s.at]
	s.at++
	return b
}

// unit maps a byte to [-1, 1).
func (s *byteStream) unit() float64 { return (float64(s.next()) - 128) / 128 }

// decodeBoxProblem reads: kind, dimension (1–6), terms (1–5), the
// objective's coefficients, then per variable a lower bound in [-4, 4), a
// width in [0, 4) that is exactly 0 for a quarter of the byte values, and
// a start coordinate in [-8, 8).
//
// Kind 0 is the strictly convex quadratic Σ_k (a_k·x − c_k)² + 0.05·‖x‖²;
// kind 1 the smoothed maximum T·log Σ_k exp((a_k·x − c_k)/T) + 0.05·‖x‖²
// at T ∈ [0.02, 1) — the allocator's objective in miniature.
func decodeBoxProblem(data []byte) boxProblem {
	s := &byteStream{data: data}
	kind := s.next() % 2
	n := 1 + int(s.next())%6
	terms := 1 + int(s.next())%5
	temp := 0.02 + 0.98*float64(s.next())/256
	a := make([][]float64, terms)
	c := make([]float64, terms)
	for k := range a {
		a[k] = make([]float64, n)
		for i := range a[k] {
			a[k][i] = 2 * s.unit()
		}
		c[k] = 2 * s.unit()
	}
	p := boxProblem{lower: make([]float64, n), upper: make([]float64, n), x0: make([]float64, n)}
	for i := 0; i < n; i++ {
		p.lower[i] = 4 * s.unit()
		w := s.next()
		if w < 64 {
			w = 0
		}
		p.upper[i] = p.lower[i] + float64(w)/64
		p.x0[i] = 8 * s.unit()
	}
	r := make([]float64, terms)
	p.obj = Func(func(x, grad []float64) float64 {
		f := 0.0
		for i := range x {
			f += 0.05 * x[i] * x[i]
			if grad != nil {
				grad[i] = 0.1 * x[i]
			}
		}
		top := math.Inf(-1)
		for k := range a {
			r[k] = -c[k]
			for i := range x {
				r[k] += a[k][i] * x[i]
			}
			top = math.Max(top, r[k])
		}
		if kind == 0 {
			for k := range a {
				f += r[k] * r[k]
				for i := 0; grad != nil && i < len(x); i++ {
					grad[i] += 2 * r[k] * a[k][i]
				}
			}
			return f
		}
		sum := 0.0
		for k := range r {
			r[k] = math.Exp((r[k] - top) / temp)
			sum += r[k]
		}
		for k := range a {
			for i := 0; grad != nil && i < len(x); i++ {
				grad[i] += r[k] / sum * a[k][i]
			}
		}
		return f + top + temp*math.Log(sum)
	})
	return p
}

// FuzzMinimizeBox runs the quasi-Newton minimizer and the spectral-
// gradient reference on the same box-constrained convex problem: neither
// may fail, both must end inside the box, and the new one must end no
// higher than the reference beyond the stop rule's own resolution.
func FuzzMinimizeBox(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is in testdata/fuzz/FuzzMinimizeBox
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeBoxProblem(data)
		opts := Options{MaxIter: 20000}
		got, err := Minimize(p.obj, p.lower, p.upper, p.x0, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refMinimize(p.obj, p.lower, p.upper, p.x0, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range got.X {
			if !(x >= p.lower[i] && x <= p.upper[i]) {
				t.Fatalf("x[%d] = %v outside [%v, %v]", i, x, p.lower[i], p.upper[i])
			}
		}
		if got.F != p.obj.Eval(got.X, nil) {
			t.Fatalf("reported F = %v, objective at X = %v", got.F, p.obj.Eval(got.X, nil))
		}
		if !got.Converged() {
			t.Fatalf("did not converge: %v after %d iterations (reference: %v after %d)", got.Status, got.Iters, want.Status, want.Iters)
		}
		if tol := 1e-9 * math.Max(1, math.Abs(want.F)); got.F > want.F+tol {
			t.Fatalf("F = %.17g (%v, %d evaluations), reference %.17g (%v, %d evaluations)",
				got.F, got.Status, got.Evals, want.F, want.Status, want.Evals)
		}
	})
}

// epigraphProgram is one fuzz-decoded expression program: a random DAG
// over up to three variables, its root and its box.
type epigraphProgram struct {
	g            expr.Graph
	root         expr.ID
	lower, upper []float64
}

// box is the box over the variables the graph mentions (a decoded
// variable may appear in no node), and its midpoint.
func (p *epigraphProgram) box() (lower, upper, mid []float64) {
	n := p.g.NumVars()
	lower, upper, mid = p.lower[:n], p.upper[:n], make([]float64, n)
	for i := range mid {
		mid[i] = 0.5 * (lower[i] + upper[i])
	}
	return lower, upper, mid
}

// decodeEpigraphProgram reads: variable count (1–3); per variable a lower
// bound in [-2, 2) and a width in [0, 2) that is exactly 0 for a quarter of
// the byte values; a node count (1–12); then per node a kind and its
// operands, which name earlier nodes by byte modulo the nodes so far. The
// kinds are a constant (zero for a sixteenth of the values), a monomial
// with exponents in {−1, −½, 0, ½, 1}, a Sum, a Scale (by zero for a
// sixteenth), a Mul (a Sum instead where the product's degree — its
// largest total exponent — would pass 4, which keeps every value within a
// few powers of ten), a SmoothMax of two or three nodes — which the other
// kinds make constant, or all-zero, children of — and the grid kinds' max
// of 1 and p_v^{−½}·p_w. The root is the max of the last three nodes.
func decodeEpigraphProgram(data []byte) *epigraphProgram {
	s := &byteStream{data: data}
	nv := 1 + int(s.next())%3
	p := &epigraphProgram{lower: make([]float64, nv), upper: make([]float64, nv)}
	for i := range nv {
		p.lower[i] = 2 * s.unit()
		w := s.next()
		if w < 64 {
			w = 0
		}
		p.upper[i] = p.lower[i] + float64(w)/128
	}
	g := &p.g
	var ids []expr.ID
	var degree []float64
	k := 0 // the operand pick last chose
	pick := func() expr.ID {
		k = int(s.next()) % len(ids)
		return ids[k]
	}
	for n := 1 + int(s.next())%12; len(ids) < n; {
		kind := s.next() % 7
		if len(ids) == 0 {
			kind = 1
		}
		deg := 0.0
		switch kind {
		case 0:
			c := float64(s.next()) / 64
			if c < 0.25 {
				c = 0
			}
			ids = append(ids, g.Const(c))
		case 1:
			exps := map[int]float64{}
			for v := range nv {
				exps[v] = float64(int(s.next())%5-2) / 2
				deg += math.Abs(exps[v])
			}
			ids = append(ids, g.Monomial(0.1+float64(s.next())/64, exps))
		case 2, 4:
			a := pick()
			da := degree[k]
			b := pick()
			if deg = max(da, degree[k]); kind == 4 && da+degree[k] <= 4 {
				ids, deg = append(ids, g.Mul(a, b)), da+degree[k]
			} else {
				ids = append(ids, g.Sum(a, b))
			}
		case 3:
			c := float64(s.next()) / 64
			if c < 0.25 {
				c = 0
			}
			ids = append(ids, g.Scale(c, pick()))
			deg = degree[k]
		case 5:
			kids := []expr.ID{pick()}
			deg = degree[k]
			for range 1 + int(s.next()%2) {
				kids = append(kids, pick())
				deg = max(deg, degree[k])
			}
			ids = append(ids, g.SmoothMax(kids...))
		case 6:
			v, w := int(s.next())%nv, int(s.next())%nv
			ids = append(ids, g.SmoothMax(g.Const(1), g.Monomial(1, map[int]float64{v: -0.5, w: 1})))
			deg = 1.5
		}
		degree = append(degree, deg)
	}
	p.root = g.SmoothMax(ids[max(0, len(ids)-3):]...)
	return p
}

// FuzzEpigraph compiles a random expression DAG to epigraph form and
// solves it exactly: the solve must certify its gap, report the log of
// the root's exact value at its point, and land no higher than the
// annealed reference — the smoothed minimizer the default solve replaced
// — nor, with up to two free variables, than any point of a dense grid.
func FuzzEpigraph(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is in testdata/fuzz/FuzzEpigraph
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeEpigraphProgram(data)
		ep, err := p.g.Epigraph(p.root)
		if errors.Is(err, expr.ErrZeroRoot) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		lower, upper, mid := p.box()
		res, err := MinimizeEpigraph(ep, lower, upper, mid, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != GapConverged || !(res.Gap <= gapTol) {
			t.Fatalf("status %v after %d iterations, certificate %v", res.Status, res.Iters, res.Gap)
		}
		ev := expr.NewEvaluator(&p.g)
		got := ev.Eval(p.root, res.X, 0)
		if !approx(math.Log(got), res.F, 1e-12) {
			t.Fatalf("F = %v, log of the root at X = %v", res.F, math.Log(got))
		}
		if len(mid) == 0 {
			return // a constant: nothing for the references to minimise
		}
		obj := TempFunc(func(temp float64, x, grad []float64) float64 {
			if grad == nil {
				return ev.Eval(p.root, x, temp)
			}
			return ev.EvalGrad(p.root, x, temp, grad)
		})
		start := 0.05 * ev.Eval(p.root, mid, 0)
		ref, err := MinimizeAnnealed(obj, lower, upper, mid, AnnealOptions{
			StartTemp: start, EndTemp: start * 1e-6, Inner: Options{MaxIter: 4000},
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := ev.Eval(p.root, ref.X, 0); got > want*(1+gapTol) {
			t.Fatalf("Φ = %.15g, annealed reference %.15g", got, want)
		}
		var free []int
		for i := range lower {
			if lower[i] < upper[i] {
				free = append(free, i)
			}
		}
		if len(free) > 2 {
			return
		}
		const steps = 100
		x := slices.Clone(lower)
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				for k, v := range free {
					c := []int{i, j}[k]
					x[v] = lower[v] + (upper[v]-lower[v])*float64(c)/steps
				}
				if v := ev.Eval(p.root, x, 0); got > v*(1+gapTol) {
					t.Fatalf("Φ = %.15g, grid point %v has %.15g", got, x, v)
				}
			}
			if len(free) < 2 {
				break
			}
		}
	})
}
