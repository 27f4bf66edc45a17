package convex

import (
	"errors"
	"math"
	"slices"
	"testing"

	"paradigm/internal/expr"
)

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
			vars, exps := make([]int, nv), make([]float64, nv)
			for v := range nv {
				vars[v], exps[v] = v, float64(int(s.next())%5-2)/2
				deg += math.Abs(exps[v])
			}
			ids = append(ids, g.Monomial(0.1+float64(s.next())/64, vars, exps))
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
			ids = append(ids, g.SmoothMax(g.Const(1), g.Monomial(1, []int{v, w}, []float64{-0.5, 1})))
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
		ref, err := refMinimizeAnnealed(obj, lower, upper, mid, AnnealOptions{
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
