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

// TestRandomMaxOfMonomialsVsGrid compares the exact solve against brute-force
// grid search on random 2-variable posynomial objectives (the max of a sum
// of monomials and one more monomial) over the box [1, 64]².
func TestRandomMaxOfMonomialsVsGrid(t *testing.T) {
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		var g expr.Graph
		nTerms := 2 + rng.Intn(3)
		ids := make([]expr.ID, 0, nTerms)
		for k := 0; k < nTerms; k++ {
			ids = append(ids, g.Monomial(0.2+2*rng.Float64(), []int{0, 1}, []float64{
				float64(rng.Intn(5)-2) / 2,
				float64(rng.Intn(5)-2) / 2,
			}))
		}
		root := g.SmoothMax(g.Sum(ids...), g.Monomial(0.1+rng.Float64(), []int{0, 1}, []float64{1, 1}))
		ep, err := g.Epigraph(root)
		if err != nil {
			return false
		}
		lo := []float64{0, 0}
		hi := []float64{math.Log(64), math.Log(64)}
		res, err := MinimizeEpigraph(ep, lo, hi, []float64{1, 1}, nil)
		if err != nil || res.Status != GapConverged {
			return false
		}
		ev := expr.NewEvaluator(&g)
		got := ev.Eval(root, res.X, 0)
		best := math.Inf(1)
		const steps = 200
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				x := []float64{hi[0] * float64(i) / steps, hi[1] * float64(j) / steps}
				best = min(best, ev.Eval(root, x, 0))
			}
		}
		return got <= best*(1+gapTol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{MaxIterReached, LineSearchStalled, GapConverged, Stepped, Status(99)} {
		if s.String() == "" {
			t.Fatalf("empty status string for %d", int(s))
		}
	}
}

// solveFrom solves root's epigraph program over [lo, hi] from x0 and
// requires a certified stop.
func solveFrom(t *testing.T, g *expr.Graph, root expr.ID, lo, hi, x0 []float64) Result {
	t.Helper()
	ep, err := g.Epigraph(root)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MinimizeEpigraph(ep, lo, hi, x0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != GapConverged || !(res.Gap <= gapTol) {
		t.Fatalf("status %v, gap %v", res.Status, res.Gap)
	}
	return res
}

// TestActiveBoxConstraint: max(3/p, 1/p²) falls all the way to the top of
// p ∈ [1, e²], so the minimum sits on the box's upper bound.
func TestActiveBoxConstraint(t *testing.T) {
	var g expr.Graph
	root := g.SmoothMax(g.Monomial(3, []int{0}, []float64{-1}), g.Monomial(1, []int{0}, []float64{-2}))
	res := solveFrom(t, &g, root, []float64{0}, []float64{2}, []float64{1})
	if !approx(res.X[0], 2, 1e-8) || !approx(res.F, math.Log(3)-2, 1e-9) {
		t.Fatalf("x = %v, F = %v; want 2, ln 3 − 2", res.X[0], res.F)
	}
}

// TestStartOutsideBoxIsProjected: a start far outside the box is pulled
// into it, and the solve still lands on the interior minimum of
// max(2/p, p/2), p = 2.
func TestStartOutsideBoxIsProjected(t *testing.T) {
	var g expr.Graph
	root := g.SmoothMax(g.Monomial(2, []int{0}, []float64{-1}), g.Monomial(0.5, []int{0}, []float64{1}))
	for _, x0 := range []float64{100, -100} {
		res := solveFrom(t, &g, root, []float64{0}, []float64{math.Log(64)}, []float64{x0})
		if !approx(res.X[0], math.Ln2, 1e-6) {
			t.Fatalf("start %v: x = %v, want ln 2", x0, res.X[0])
		}
	}
}
