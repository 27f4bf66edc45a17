package convex

import (
	"math"
	"testing"
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
