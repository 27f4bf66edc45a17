package alloc_test

import (
	"slices"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/convex"
	"paradigm/internal/sched"
)

// The differential gate of the exact solve (DESIGN.md §12, "Interior point
// on the epigraph form"): alloc.Solve against alloc.SolveAnnealed, the
// temperature ladder it replaced.

// TestExactSolveNoWorseThanAnnealed: on the 780 instances of
// solverPopulations every solve certifies a gap of at most 1e-9 and lands
// no higher in exact Φ than the annealed solve, to that certificate. Run
// with -v for each population's mean relative fall.
func TestExactSolveNoWorseThanAnnealed(t *testing.T) {
	for _, pop := range solverPopulations(t) {
		t.Run(pop.name, func(t *testing.T) {
			fall, worst := 0.0, -1.0
			for _, in := range pop.set {
				got, err := alloc.Solve(in.g, in.model, in.procs, alloc.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got.Solver.Status != convex.GapConverged || !(got.Solver.Gap <= 1e-9) {
					t.Errorf("%s: stopped %v, certificate %v", in.name, got.Solver.Status, got.Solver.Gap)
				}
				ref, err := alloc.SolveAnnealed(in.g, in.model, in.procs)
				if err != nil {
					t.Fatal(err)
				}
				ratio := got.Phi/ref.Phi - 1
				if ratio > 1e-9 {
					t.Errorf("%s: Φ %.12g, annealed %.12g (%+.3g)", in.name, got.Phi, ref.Phi, ratio)
				}
				fall -= ratio
				worst = max(worst, ratio)
			}
			t.Logf("%d instances: Φ falls %.3g relative in the mean, worst %+.3g", len(pop.set), fall/float64(len(pop.set)), worst)
		})
	}
}

// TestExactSolveSchedulesLikeAnnealed: the more exact Φ moves no rounded
// allocation — sched.Run gives the same Alloc and T_psa from either solve
// on the benchmark's 300 cold specs and two hot specs, CMM-256 and
// Strassen-128 at p = 64 and the six golden configurations. That is what
// holds model_makespan and every golden schedule in place.
func TestExactSolveSchedulesLikeAnnealed(t *testing.T) {
	cal := trainedModel(t)
	set := solverPopulations(t)[4].set
	set = append(set, programInstance(t, cal, "cmm", 16, 4), programInstance(t, cal, "cmm", 16, 8),
		programInstance(t, cal, "cmm", 256, 64), programInstance(t, cal, "strassen", 128, 64))
	for _, procs := range []int{4, 16, 64} {
		set = append(set, programInstance(t, cal, "cmm", 32, procs), programInstance(t, cal, "strassen", 16, procs))
	}
	for _, in := range set {
		got, err := alloc.Solve(in.g, in.model, in.procs, alloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := alloc.SolveAnnealed(in.g, in.model, in.procs)
		if err != nil {
			t.Fatal(err)
		}
		sGot, err := sched.Run(in.g, in.model, got.P, in.procs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sRef, err := sched.Run(in.g, in.model, ref.P, in.procs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sGot.Alloc, sRef.Alloc) || sGot.Makespan != sRef.Makespan {
			t.Errorf("%s: allocation %v (T_psa %v), annealed %v (%v)", in.name, sGot.Alloc, sGot.Makespan, sRef.Alloc, sRef.Makespan)
		}
	}
}
