package alloc_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/costmodel"
	"paradigm/internal/machine"
	"paradigm/internal/mdg"
	"paradigm/internal/oracle"
	"paradigm/internal/programs"
	"paradigm/internal/sched"
	"paradigm/internal/trainsets"
)

// The differential gate of the orbit reduction (DESIGN.md §3, "Solving
// over orbits"): alloc.Solve compiles the quotient program over
// g.Orbits(), alloc.RefSolve the full one-variable-per-node program it
// replaced. Where a graph has no automorphism the two programs are the
// same expression graph, so the solves must agree bit for bit; where it
// has, the reduced solve must land no higher in exact Φ.

var cm5Fit = costmodel.Model{Transfer: costmodel.TransferParams{
	Tss: 777.56e-6, Tps: 486.98e-9, Tsr: 465.58e-6, Tpr: 426.25e-9, Tn: 0,
}}

type instance struct {
	name  string
	g     *mdg.Graph
	model costmodel.Model
	procs int
}

func trainedModel(t testing.TB) *trainsets.Calibration {
	t.Helper()
	cal, err := trainsets.Calibrate(machine.CM5(64))
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func programInstance(t testing.TB, cal *trainsets.Calibration, kind string, size, procs int) instance {
	t.Helper()
	build := programs.ComplexMatMul
	if kind == "strassen" {
		build = programs.Strassen
	}
	p, err := build(size, cal)
	if err != nil {
		t.Fatal(err)
	}
	return instance{fmt.Sprintf("%s%d-p%d", kind, size, procs), p.G, cal.Model(), procs}
}

func orbitCount(t testing.TB, g *mdg.Graph) int {
	t.Helper()
	orbit, err := g.Orbits()
	if err != nil {
		t.Fatal(err)
	}
	return slices.Max(orbit) + 1
}

// TestReducedSolveIsBitIdenticalWithoutSymmetry: the oracle's 200
// generated MDGs (p = 8, the CM-5 fit) and determinism_test's 50 (p = 16,
// the trained model) have no automorphism, and there alloc.Solve must
// return RefSolve's allocation, evaluation and iteration counts exactly.
func TestReducedSolveIsBitIdenticalWithoutSymmetry(t *testing.T) {
	var set []instance
	for seed := uint64(1); seed <= 200; seed++ {
		set = append(set, instance{fmt.Sprintf("oracle-%d", seed), oracle.RandomGraph(seed, oracle.GenOptions{}), cm5Fit, 8})
	}
	model := trainedModel(t).Model()
	for seed := uint64(1); seed <= 50; seed++ {
		set = append(set, instance{fmt.Sprintf("determinism-%d", seed), oracle.RandomGraph(seed, oracle.GenOptions{}), model, 16})
	}
	for _, in := range set {
		if k := orbitCount(t, in.g); k != in.g.NumNodes() {
			t.Fatalf("%s: %d nodes in %d orbits; the generator was meant to be asymmetric", in.name, in.g.NumNodes(), k)
		}
		got, err := alloc.Solve(in.g, in.model, in.procs, alloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := alloc.RefSolve(in.g, in.model, in.procs, alloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Solver.Evals != want.Solver.Evals || got.Solver.Iters != want.Solver.Iters {
			t.Fatalf("%s: %d evals / %d iters, reference %d / %d", in.name, got.Solver.Evals, got.Solver.Iters, want.Solver.Evals, want.Solver.Iters)
		}
		for i := range want.P {
			if math.Float64bits(got.P[i]) != math.Float64bits(want.P[i]) {
				t.Fatalf("%s: P[%d] = %v, reference %v", in.name, i, got.P[i], want.P[i])
			}
		}
	}
}

// TestReducedSolveNoWorseOnSymmetricPopulations: on 200 planted-symmetry
// MDGs, the Strassen sweep and the benchmark's 300 cold CMM specs, the
// reduced solve's exact Φ is within 1e-9 relative of the full solve's on
// every instance. Both solves are exact to a duality gap of 1e-9 in log
// units, and the orbit subspace holds a global optimum, so neither can
// undercut the other by more. Run with -v for the tables EXPERIMENTS.md
// quotes, T_psa of both solutions included.
func TestReducedSolveNoWorseOnSymmetricPopulations(t *testing.T) {
	cal := trainedModel(t)
	var planted, sweep, cold []instance
	for seed := uint64(1); seed <= 200; seed++ {
		planted = append(planted, instance{fmt.Sprintf("planted-%d", seed), oracle.PlantedGraph(seed, oracle.GenOptions{}), cm5Fit, 8})
	}
	for _, n := range []int{16, 32, 64, 128, 256} {
		for _, procs := range []int{4, 8, 16, 32, 64, 128} {
			sweep = append(sweep, programInstance(t, cal, "strassen", n, procs))
		}
	}
	// bench/gen.go's svc_cold specs: a stride coprime to a 96 × 32 grid
	// of CMM sizes 32… and system sizes 4….
	const gridSizes, gridProcs, stride = 96, 32, 1021
	for i := 0; i < 300; i++ {
		cell := i * stride % (gridSizes * gridProcs)
		cold = append(cold, programInstance(t, cal, "cmm", 32+cell/gridProcs, 4+cell%gridProcs))
	}
	populations := []struct {
		name      string
		set       []instance
		schedules bool // compare T_psa (the programs have START/STOP)
	}{{"planted200", planted, false}, {"strassen-sweep", sweep, true}, {"svc-cold300", cold, true}}
	if testing.Short() {
		populations = populations[:2]
	}
	for _, pop := range populations {
		t.Run(pop.name, func(t *testing.T) {
			var worst float64
			var itersGot, itersRef, lower, higher, reduced, moved int
			for _, in := range pop.set {
				if orbitCount(t, in.g) < in.g.NumNodes() {
					reduced++
				}
				got, err := alloc.Solve(in.g, in.model, in.procs, alloc.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := alloc.RefSolve(in.g, in.model, in.procs, alloc.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ratio := got.Phi/ref.Phi - 1
				if ratio > 1e-9 {
					t.Errorf("%s: Φ %.12g, full program %.12g (%+.3g)", in.name, got.Phi, ref.Phi, ratio)
				}
				worst = max(worst, ratio)
				switch {
				case got.Phi < ref.Phi:
					lower++
				case got.Phi > ref.Phi:
					higher++
				}
				itersGot += got.Solver.Iters
				itersRef += ref.Solver.Iters
				if !pop.schedules {
					continue
				}
				sGot, err := sched.Run(in.g, in.model, got.P, in.procs, sched.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sRef, err := sched.Run(in.g, in.model, ref.P, in.procs, sched.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if sGot.Makespan != sRef.Makespan {
					moved++
				}
				if pop.name == "strassen-sweep" {
					t.Logf("%-18s Φ %.9g → %.9g (%+.2g)  T_psa %.9g → %.9g  iterations %d → %d",
						in.name, ref.Phi, got.Phi, ratio, sRef.Makespan, sGot.Makespan, ref.Solver.Iters, got.Solver.Iters)
				}
			}
			t.Logf("%d instances (%d with symmetry): %d lower, %d higher, worst %+.2g; iterations %d (full %d)",
				len(pop.set), reduced, lower, higher, worst, itersGot, itersRef)
			if pop.schedules {
				t.Logf("T_psa differs from the full program's on %d of %d", moved, len(pop.set))
			}
		})
	}
}
