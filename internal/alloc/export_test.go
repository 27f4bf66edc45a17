package alloc

import (
	"context"
	"errors"
	"math"

	"paradigm/internal/convex"
	"paradigm/internal/costmodel"
	"paradigm/internal/mdg"
)

// RefSolve solves over the full, unreduced program (reference_test.go),
// for the differential gate in package alloc_test, which needs the oracle
// and program builders that package alloc's own tests cannot import.
var RefSolve = refSolve

// SolveFromStarts compiles g's orbit-reduced program once and runs one
// default solve from each point starts builds, in place of the box
// midpoint. starts receives the box's upper corner (ln p in every orbit
// coordinate; the lower corner is 0).
func SolveFromStarts(g *mdg.Graph, model costmodel.Model, procs int, starts func(upper []float64) [][]float64) ([]Result, error) {
	prob, err := compile(g, model, procs, Options{})
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, x0 := range starts(prob.upper) {
		res, err := prob.solveFrom(context.Background(), x0, Options{})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// SolveSetup runs what a solve of g does before its first iteration:
// compile, the epigraph form and the interior-point method's setup. The
// NaN start stops convex.MinimizeEpigraph at its interior check, after
// its setup and before the first evaluation of the constraints.
func SolveSetup(g *mdg.Graph, model costmodel.Model, procs int) error {
	prob, err := compile(g, model, procs, Options{})
	if err != nil {
		return err
	}
	ep, err := prob.eg.Epigraph(prob.phi)
	if err != nil {
		return err
	}
	x0 := prob.midpoint()
	x0[0] = math.NaN()
	if _, err := convex.MinimizeEpigraph(ep, prob.lower, prob.upper, x0, nil); err == nil {
		return errors.New("alloc: a NaN start passed the interior check")
	}
	return nil
}
