package alloc

import (
	"context"
	"math"
	"testing"

	"paradigm/internal/mdg"
	"paradigm/internal/par"
)

func TestQuantizeOrdering(t *testing.T) {
	rs := newRaceState(0)
	cases := []struct{ lo, hi float64 }{
		{1, 1.001}, {1e-6, 2e-6}, {5, 50}, {1e9, 2e9},
	}
	for _, c := range cases {
		if rs.quantize(c.lo) > rs.quantize(c.hi) {
			t.Fatalf("quantize not monotone: Q(%v)=%d > Q(%v)=%d", c.lo, rs.quantize(c.lo), c.hi, rs.quantize(c.hi))
		}
	}
	// Values within a factor (1+tol) may tie; a full factor 2 may not.
	if rs.quantize(1) == rs.quantize(2) {
		t.Fatal("quantize collapsed a factor-2 gap")
	}
	if rs.quantize(math.NaN()) != math.MaxInt32 || rs.quantize(math.Inf(1)) != math.MaxInt32 {
		t.Fatal("NaN/+Inf must lose to everything")
	}
	if rs.quantize(-1) != math.MinInt32 || rs.quantize(0) != math.MinInt32 {
		t.Fatal("non-positive values must pin to the minimum bucket")
	}
}

func TestPackCandidateLexicographic(t *testing.T) {
	// Packed comparison must equal lexicographic (q, idx) comparison,
	// including the seed index -1.
	qs := []int32{math.MinInt32, -3, 0, 7, math.MaxInt32}
	idxs := []int{-1, 0, 1, 5, 1 << 20}
	for _, q1 := range qs {
		for _, i1 := range idxs {
			for _, q2 := range qs {
				for _, i2 := range idxs {
					wantLess := q1 < q2 || (q1 == q2 && i1 < i2)
					gotLess := packCandidate(q1, i1) < packCandidate(q2, i2)
					if wantLess != gotLess {
						t.Fatalf("pack(%d,%d) vs pack(%d,%d): lex %v, packed %v", q1, i1, q2, i2, wantLess, gotLess)
					}
				}
			}
		}
	}
}

func TestIncumbentAndBoundMonotone(t *testing.T) {
	rs := newRaceState(0)
	if rs.shouldAbandon(5) {
		t.Fatal("empty race state must not abandon")
	}
	rs.publishResult(rs.quantize(10), 2)
	if rs.shouldAbandon(5) {
		t.Fatal("no certified bound yet: must not abandon")
	}
	// A loose bound (far below the incumbent) proves nothing.
	rs.publishBound(1)
	if rs.shouldAbandon(5) {
		t.Fatal("loose bound must not abandon")
	}
	// A tight bound in the incumbent's bucket certifies it.
	rs.publishBound(10 * (1 - 1e-6))
	if !rs.shouldAbandon(5) {
		t.Fatal("tight bound + later index must abandon")
	}
	if rs.shouldAbandon(2) || rs.shouldAbandon(1) || rs.shouldAbandon(-1) {
		t.Fatal("the incumbent and earlier indices must never abandon")
	}
	// Weaker publications must not regress the state.
	rs.publishBound(0.5)
	rs.publishResult(rs.quantize(50), 0)
	if !rs.shouldAbandon(5) {
		t.Fatal("weaker publications regressed the race state")
	}
}

// TestCertifiedBoundIsGlobalLowerBound checks the racing certificate on
// real compiled problems: no certificate published from any point of any
// trajectory may exceed the best exact Φ any start ever achieves.
func TestCertifiedBoundIsGlobalLowerBound(t *testing.T) {
	graphs := map[string]*mdg.Graph{
		"forkJoin": forkJoin(0.9),
		"chain":    chainGraphForRace(),
	}
	for name, g := range graphs {
		prob, err := compile(g, cm5Fit, 16, Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		// Gather every start's exact Φ without racing.
		starts := prob.startPoints(6)
		bestPhi := math.Inf(1)
		for i, x0 := range starts {
			r, _, err := prob.solveFromRace(context.Background(), i, x0, Options{}.Anneal, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			bestPhi = math.Min(bestPhi, r.Phi)
		}
		// Certify from arbitrary points (starts and midway blends) at
		// several temperatures; every bound must stay below bestPhi.
		ev := prob.pool.Get()
		defer prob.pool.Put(ev)
		grad := make([]float64, len(prob.upper))
		for _, x0 := range starts {
			for _, temp := range []float64{1e-1, 1e-3, 1e-6} {
				l := prob.certifyBound(ev, x0, temp, grad)
				if l > bestPhi*(1+1e-9) {
					t.Fatalf("%s: certificate %v exceeds best achievable Φ %v (temp %v)", name, l, bestPhi, temp)
				}
			}
		}
	}
}

func chainGraphForRace() *mdg.Graph {
	var g mdg.Graph
	a := g.AddNode(mdg.Node{Name: "a", Alpha: 0.85, Tau: 3})
	b := g.AddNode(mdg.Node{Name: "b", Alpha: 0.6, Tau: 7})
	c := g.AddNode(mdg.Node{Name: "c", Alpha: 0.95, Tau: 2})
	g.AddEdge(a, b, mdg.Transfer{Bytes: 4096, Kind: mdg.Transfer2D})
	g.AddEdge(b, c, mdg.Transfer{Bytes: 1024, Kind: mdg.Transfer1D})
	return &g
}

// TestRacingDeterministicAcrossWidths is the tentpole property test: the
// racing multi-start must return byte-identical allocations — solver
// Iters/Evals included — at any worker width, seed or no seed.
func TestRacingDeterministicAcrossWidths(t *testing.T) {
	graphs := map[string]*mdg.Graph{
		"forkJoin": forkJoin(0.9),
		"chain":    chainGraphForRace(),
	}
	for name, g := range graphs {
		for _, ms := range []int{2, 4, 7} {
			var base Result
			for wi, width := range []string{"1", "4", ""} {
				t.Setenv(par.EnvWorkers, width)
				res, err := Solve(g, cm5Fit, 16, Options{MultiStart: ms})
				if err != nil {
					t.Fatal(err)
				}
				if wi == 0 {
					base = res
					continue
				}
				if res.Phi != base.Phi || res.Ap != base.Ap || res.Cp != base.Cp {
					t.Fatalf("%s ms=%d width=%q: Φ/A_p/C_p differ: %+v vs %+v", name, ms, width, res, base)
				}
				for i := range res.P {
					if res.P[i] != base.P[i] {
						t.Fatalf("%s ms=%d width=%q: P[%d] = %v vs %v", name, ms, width, i, res.P[i], base.P[i])
					}
				}
				if res.Solver.Iters != base.Solver.Iters || res.Solver.Evals != base.Solver.Evals {
					t.Fatalf("%s ms=%d width=%q: solver trajectory differs: %d/%d vs %d/%d",
						name, ms, width, res.Solver.Iters, res.Solver.Evals, base.Solver.Iters, base.Solver.Evals)
				}
			}
		}
	}
}

// TestRacingSeedDeterministicAcrossWidths covers the warm-start path: a
// seeded race must also be width-independent.
func TestRacingSeedDeterministicAcrossWidths(t *testing.T) {
	g := forkJoin(0.9)
	prob, err := compile(g, cm5Fit, 16, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]float64, len(prob.upper))
	for i := range seed {
		seed[i] = 0.7 * prob.upper[i]
	}
	var base Result
	for wi, width := range []string{"1", "4", ""} {
		t.Setenv(par.EnvWorkers, width)
		res, err := prob.solveMulti(context.Background(), 0, 4, seed, Options{MultiStart: 4})
		if err != nil {
			t.Fatal(err)
		}
		if wi == 0 {
			base = res
			continue
		}
		if res.Phi != base.Phi {
			t.Fatalf("width %q: seeded Φ %v vs %v", width, res.Phi, base.Phi)
		}
		for i := range res.P {
			if res.P[i] != base.P[i] {
				t.Fatalf("width %q: seeded P[%d] differs", width, i)
			}
		}
	}
}

// TestRacePruneCannotChangeWinner hammers the soundness claim: against
// run-to-completion selection with the same quantization, racing returns
// the same start's result.
func TestRacePruneCannotChangeWinner(t *testing.T) {
	for _, alpha := range []float64{0.5, 0.8, 0.95} {
		g := forkJoin(alpha)
		prob, err := compile(g, cm5Fit, 32, Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: run every start to completion, select by (Q, idx).
		rs := newRaceState(0)
		starts := prob.startPoints(5)
		bestQ, bestIdx := int32(math.MaxInt32), -2
		var want Result
		for i, x0 := range starts {
			r, _, err := prob.solveFromRace(context.Background(), i, x0, Options{}.Anneal, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if q := rs.quantize(r.Phi); q < bestQ || (q == bestQ && i < bestIdx) {
				bestQ, bestIdx, want = q, i, r
			}
		}
		got, err := prob.solveMulti(context.Background(), 0, 5, nil, Options{MultiStart: 5})
		if err != nil {
			t.Fatal(err)
		}
		if got.Phi != want.Phi {
			t.Fatalf("alpha %v: racing Φ %v != run-to-completion Φ %v (start %d)", alpha, got.Phi, want.Phi, bestIdx)
		}
		for i := range got.P {
			if got.P[i] != want.P[i] {
				t.Fatalf("alpha %v: racing P[%d] differs from run-to-completion", alpha, i)
			}
		}
	}
}
