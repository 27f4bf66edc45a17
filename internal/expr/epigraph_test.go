package expr

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestEpigraphLiftIsTheHardMax: on random DAGs mixing every node kind, the
// lift of a random x — every epigraph variable on its largest child — is
// a feasible point of the compiled program, tight on every owner's
// constraints, whose objective is the log of the root's hard max at x.
func TestEpigraphLiftIsTheHardMax(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const nvars = 4
	checked := 0
	for trial := 0; trial < 300; trial++ {
		var g Graph
		root := buildRandomGraph(rng, &g, nvars)
		ep, err := g.Epigraph(root)
		if err != nil {
			t.Fatal(err)
		}
		for pt := 0; pt < 3; pt++ {
			x := make([]float64, nvars)
			for i := range x {
				x[i] = rng.Float64()*2 - 1
			}
			want := NewEvaluator(&g).Eval(root, x, 0)
			if !(want > 0) || math.IsInf(want, 0) {
				continue // the product chain overflowed; the lift, in logs, did not
			}
			u := make([]float64, ep.NumVars)
			copy(u, x)
			ep.Lift(u, 0)
			if got := u[ep.Root]; math.Abs(got-math.Log(want)) > 1e-12*math.Max(1, math.Abs(got)) {
				t.Fatalf("trial %d: lifted objective %v, log of the hard max %v", trial, got, math.Log(want))
			}
			for i := 0; i < ep.NumConstraints(); {
				o, top := ep.Owner[i], math.Inf(-1)
				for ; i < ep.NumConstraints() && ep.Owner[i] == o; i++ {
					top = max(top, ep.conValue(i, u))
				}
				if math.Abs(top) > 1e-12*math.Max(1, math.Abs(u[o])) {
					t.Fatalf("trial %d: owner %d's largest constraint is %v at the lift, want 0", trial, o, top)
				}
			}
			checked++
		}
	}
	if checked < 500 {
		t.Fatalf("only %d points checked", checked)
	}
}

// TestEpigraphEdgeCases: constants and identically zero children of a max,
// maxes that collapse to their one nonzero child, a root that is no max,
// and the inputs no epigraph exists for.
func TestEpigraphEdgeCases(t *testing.T) {
	var g Graph
	zero := g.Sum(g.Const(0), g.Scale(0, g.Var(0)))
	one := g.SmoothMax(zero, g.Var(1)) // a max of one nonzero child is that child
	root := g.Sum(g.SmoothMax(g.Const(2), g.Var(0), zero), one)
	ep, err := g.Epigraph(root)
	if err != nil {
		t.Fatal(err)
	}
	// One variable for the three-way max (its zero child dropped), one for
	// the root's sum: x0, x1, z_max, z_root.
	if ep.NumX != 2 || ep.NumVars != 4 || ep.NumConstraints() != 3 || ep.Root != 3 {
		t.Fatalf("NumX %d NumVars %d constraints %d root %d", ep.NumX, ep.NumVars, ep.NumConstraints(), ep.Root)
	}
	u := []float64{math.Log(3), math.Log(5), 0, 0}
	ep.Lift(u, 0)
	if want := math.Log(3 + 5.0); math.Abs(u[ep.Root]-want) > 1e-15 {
		t.Fatalf("lifted root %v, want log 8 = %v", u[ep.Root], want)
	}

	if _, err := g.Epigraph(zero); !errors.Is(err, ErrZeroRoot) {
		t.Fatalf("zero root: err %v", err)
	}
	var neg Graph
	if _, err := neg.Epigraph(neg.Sum(neg.Const(-1), neg.Var(0))); err == nil {
		t.Fatal("a negative constant compiled")
	}
	if _, err := g.Epigraph(ID(g.NumNodes())); err == nil {
		t.Fatal("an out-of-range root compiled")
	}
}

// TestEpigraphCompileIsDeterministic: two compiles of one graph agree in
// every slice, and a graph rebuilt node for node compiles alike.
func TestEpigraphCompileIsDeterministic(t *testing.T) {
	build := func() (*Graph, ID) {
		g := &Graph{}
		return g, buildRandomGraph(rand.New(rand.NewSource(5)), g, 3)
	}
	g1, r1 := build()
	g2, r2 := build()
	a, err := g1.Epigraph(r1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g2.Epigraph(r2)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := g1.Epigraph(r1)
	for _, e := range []*Epigraph{b, c} {
		if a.NumVars != e.NumVars || a.Root != e.Root || !slices.Equal(a.ConOff, e.ConOff) || !slices.Equal(a.Owner, e.Owner) ||
			!slices.Equal(a.TermOff, e.TermOff) || !slices.Equal(a.Var, e.Var) || !slices.Equal(a.Exp, e.Exp) ||
			!slices.EqualFunc(a.LogCoef, e.LogCoef, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatal("two compiles of one program differ")
		}
	}
}
