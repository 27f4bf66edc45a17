package convex_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/convex"
	"paradigm/internal/costmodel"
	"paradigm/internal/expr"
	"paradigm/internal/machine"
	"paradigm/internal/mdg"
	"paradigm/internal/oracle"
	"paradigm/internal/programs"
	"paradigm/internal/sched"
	"paradigm/internal/trainsets"
)

// phiProblem is the allocator's convex program for one (MDG, model,
// procs), rebuilt from the cost model's public expression builders: the
// allocator's own copy is unexported and offers no seam for a second
// minimizer, by design. It mirrors alloc's compile step for step — the
// quotient program over g.Orbits(), one variable per automorphism orbit —
// and TestRebuiltPhiIsTheAllocators proves the two are the same program.
type phiProblem struct {
	g            *mdg.Graph
	model        costmodel.Model
	procs        int
	eg           expr.Graph
	phi          expr.ID
	lower, upper []float64
	orbit        []int // node i's variable, from g.Orbits()
}

func buildPhi(t testing.TB, g *mdg.Graph, model costmodel.Model, procs int) *phiProblem {
	t.Helper()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	orbit, err := g.Orbits()
	if err != nil {
		t.Fatal(err)
	}
	k := slices.Max(orbit) + 1
	rep := make([]mdg.NodeID, k) // each orbit's first member in topological order
	size := make([]int, k)
	for _, v := range order {
		if size[orbit[v]] == 0 {
			rep[orbit[v]] = v
		}
		size[orbit[v]]++
	}
	isRep := func(v mdg.NodeID) bool { return rep[orbit[v]] == v }
	p := &phiProblem{g: g, model: model, procs: procs, orbit: orbit, lower: make([]float64, k), upper: make([]float64, k)}
	eg := &p.eg
	type endpoints [2]mdg.NodeID
	send, net, recv := map[endpoints]expr.ID{}, map[endpoints]expr.ID{}, map[endpoints]expr.ID{}
	for _, e := range g.Edges {
		if isRep(e.From) || isRep(e.To) {
			k := endpoints{e.From, e.To}
			send[k], net[k], recv[k] = costmodel.EdgeTransferExprs(eg, model.Transfer, e, orbit[e.From], orbit[e.To])
		}
	}
	weight := make([]expr.ID, k)
	for c, v := range rep {
		terms := []expr.ID{costmodel.ProcessingExpr(eg, costmodel.LoopParams{Alpha: g.Nodes[v].Alpha, Tau: g.Nodes[v].Tau}, c)}
		for _, m := range g.Preds(v) {
			terms = append(terms, recv[endpoints{m, v}])
		}
		for _, s := range g.Succs(v) {
			terms = append(terms, send[endpoints{v, s}])
		}
		weight[c] = eg.Sum(terms...)
	}
	areas := make([]expr.ID, k)
	for c := range areas {
		areas[c] = eg.Scale(float64(size[c]), eg.Mul(weight[c], eg.Var(c)))
	}
	ap := eg.Scale(1/float64(procs), eg.Sum(areas...))
	y := make([]expr.ID, k)
	for _, v := range order {
		if !isRep(v) {
			continue
		}
		preds := g.Preds(v)
		if len(preds) == 0 {
			y[orbit[v]] = weight[orbit[v]]
			continue
		}
		arrivals := make([]expr.ID, 0, len(preds))
		for _, m := range preds {
			arrivals = append(arrivals, eg.Sum(y[orbit[m]], net[endpoints{m, v}]))
		}
		y[orbit[v]] = eg.Sum(eg.SmoothMax(arrivals...), weight[orbit[v]])
	}
	var sinks []expr.ID
	for i := range g.Nodes {
		if len(g.Succs(mdg.NodeID(i))) == 0 {
			sinks = append(sinks, y[orbit[i]])
		}
	}
	p.phi = eg.SmoothMax(ap, eg.SmoothMax(sinks...))
	for i := range p.upper {
		p.upper[i] = math.Log(float64(procs))
	}
	return p
}

// solution is one solve of the program, scored the way alloc.Solve scores
// it: the exact (hard-max) Φ at the final point.
type solution struct {
	p      []float64
	phi    float64
	solver convex.Result
	capped int // temperature stages that ended at the iteration cap
}

// annealed runs the single-start ladder the allocator annealed down before
// its exact solve (box midpoint, start temperature 5 % of Φ there, five
// decades, 4 000 iterations a stage, GradTol and FTol scaled by tighten)
// with the reference minimizer, convex.RefMinimizeAnnealed.
func (pp *phiProblem) annealed(t testing.TB, tighten float64) solution {
	t.Helper()
	ev := expr.NewEvaluator(&pp.eg)
	obj := convex.TempFunc(func(temp float64, x, grad []float64) float64 {
		if grad == nil {
			return ev.Eval(pp.phi, x, temp)
		}
		return ev.EvalGrad(pp.phi, x, temp, grad)
	})
	x0 := make([]float64, len(pp.upper))
	for i := range x0 {
		x0[i] = pp.upper[i] * 0.5
	}
	start := 0.05 * ev.Eval(pp.phi, x0, 0)
	if start <= 0 {
		start = 1
	}
	var out solution
	inner := convex.Options{MaxIter: 4000}
	if tighten != 1 {
		inner.GradTol, inner.FTol = 1e-8*tighten, 1e-12*tighten
	}
	sol, err := convex.RefMinimizeAnnealed(obj, pp.lower, pp.upper, x0, convex.AnnealOptions{
		StartTemp: start, EndTemp: start * 1e-5, Inner: inner,
		OnStage: func(_ int, _ float64, r convex.Result) error {
			if r.Status == convex.MaxIterReached {
				out.capped++
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out.solver = sol
	out.p = make([]float64, len(pp.orbit))
	for i, c := range pp.orbit {
		out.p[i] = math.Exp(sol.X[c])
	}
	if out.phi, _, _, err = pp.model.Phi(pp.g, out.p, pp.procs); err != nil {
		t.Fatal(err)
	}
	return out
}

// cm5Fit is the oracle suite's model: the CM-5 fit with Tn = 0.
var cm5Fit = costmodel.Model{Transfer: costmodel.TransferParams{
	Tss: 777.56e-6, Tps: 486.98e-9, Tsr: 465.58e-6, Tpr: 426.25e-9, Tn: 0,
}}

func trainedCM5(t testing.TB) *trainsets.Calibration {
	t.Helper()
	cal, err := trainsets.Calibrate(machine.CM5(64))
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// instance is one allocation problem of the differential population.
type instance struct {
	name  string
	g     *mdg.Graph
	model costmodel.Model
	procs int
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

// goldenSet is the six programs behind testdata/golden.
func goldenSet(t testing.TB, cal *trainsets.Calibration) []instance {
	var out []instance
	for _, procs := range []int{4, 16, 64} {
		out = append(out, programInstance(t, cal, "cmm", 32, procs), programInstance(t, cal, "strassen", 16, procs))
	}
	return out
}

// strassenSweep is the 5 × 6 sweep of EXPERIMENTS.md.
func strassenSweep(t testing.TB, cal *trainsets.Calibration) []instance {
	var out []instance
	for _, n := range []int{16, 32, 64, 128, 256} {
		for _, procs := range []int{4, 8, 16, 32, 64, 128} {
			out = append(out, programInstance(t, cal, "strassen", n, procs))
		}
	}
	return out
}

// coldSpecs is the benchmark's svc_cold job set: 300 distinct CMM specs
// walked out of a 96 × 32 grid of sizes 32… and system sizes 4… by a
// stride coprime to it (bench/gen.go gridSpecs; the seed only orders them).
func coldSpecs(t testing.TB, cal *trainsets.Calibration) []instance {
	const gridSizes, gridProcs, stride = 96, 32, 1021
	var out []instance
	for i := 0; i < 300; i++ {
		cell := i * stride % (gridSizes * gridProcs)
		out = append(out, programInstance(t, cal, "cmm", 32+cell/gridProcs, 4+cell%gridProcs))
	}
	return out
}

// population is one named set of allocation problems.
type population struct {
	name string
	set  []instance
}

// solverPopulations are the differential gates' 780 instances, the same
// as internal/alloc's: the oracle's 200 generated MDGs at p = 16, 200
// planted-symmetry MDGs at p = 8 (both on the CM-5 fit),
// determinism_test's 50 on the trained model, the 30-configuration
// Strassen sweep and the benchmark's 300 cold CMM specs.
func solverPopulations(t testing.TB) []population {
	cal := trainedCM5(t)
	var randomGen, planted, determinism []instance
	for seed := uint64(1); seed <= 200; seed++ {
		randomGen = append(randomGen, instance{fmt.Sprintf("oracle-%d", seed), oracle.RandomGraph(seed, oracle.GenOptions{}), cm5Fit, 16})
		planted = append(planted, instance{fmt.Sprintf("planted-%d", seed), oracle.PlantedGraph(seed, oracle.GenOptions{}), cm5Fit, 8})
	}
	for seed := uint64(1); seed <= 50; seed++ {
		determinism = append(determinism, instance{fmt.Sprintf("determinism-%d", seed), oracle.RandomGraph(seed, oracle.GenOptions{}), cal.Model(), 16})
	}
	return []population{{"oracle200", randomGen}, {"planted200", planted}, {"determinism50", determinism},
		{"strassen-sweep", strassenSweep(t, cal)}, {"svc-cold300", coldSpecs(t, cal)}}
}

// exact is the allocator's default solve of the rebuilt program: its
// epigraph form by the interior-point method from the box midpoint,
// scored by the exact Φ.
func (pp *phiProblem) exact(t testing.TB) solution {
	t.Helper()
	ep, err := pp.eg.Epigraph(pp.phi)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, len(pp.upper))
	for i := range x0 {
		x0[i] = pp.upper[i] * 0.5
	}
	sol, err := convex.MinimizeEpigraph(ep, pp.lower, pp.upper, x0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := solution{solver: sol, p: make([]float64, len(pp.orbit))}
	for i, c := range pp.orbit {
		out.p[i] = math.Exp(sol.X[c])
	}
	if out.phi, _, _, err = pp.model.Phi(pp.g, out.p, pp.procs); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRebuiltPhiIsTheAllocators: the program this file rebuilds is the one
// alloc.Solve minimizes — same evaluations, same iterations, same point.
func TestRebuiltPhiIsTheAllocators(t *testing.T) {
	cal := trainedCM5(t)
	for _, in := range []instance{programInstance(t, cal, "cmm", 56, 23), programInstance(t, cal, "strassen", 16, 16),
		{"oracle-7", oracle.RandomGraph(7, oracle.GenOptions{}), cm5Fit, 8}} {
		want, err := alloc.Solve(in.g, in.model, in.procs, alloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := buildPhi(t, in.g, in.model, in.procs).exact(t)
		if got.solver.Evals != want.Solver.Evals || got.solver.Iters != want.Solver.Iters || !slices.Equal(got.p, want.P) {
			t.Fatalf("%s: rebuilt Φ solved to %v in %d evals / %d iters, alloc.Solve to %v in %d / %d",
				in.name, got.phi, got.solver.Evals, got.solver.Iters, want.Phi, want.Solver.Evals, want.Solver.Iters)
		}
	}
}

// The differential gate of the exact solve (DESIGN.md §3, "Interior point
// on the epigraph form"): alloc.Solve against the temperature ladder it
// replaced, run by the reference minimizer on the rebuilt program.

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
				ref := buildPhi(t, in.g, in.model, in.procs).annealed(t, 1)
				ratio := got.Phi/ref.phi - 1
				if ratio > 1e-9 {
					t.Errorf("%s: Φ %.12g, annealed %.12g (%+.3g)", in.name, got.Phi, ref.phi, ratio)
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
// Strassen-128 at p = 64 and the six golden configurations.
//
// Two goldens are the exception, and the test pins that they are the
// only ones: Strassen-16 at p = 16 and p = 64, where the reference ladder
// ends stages at its iteration cap and stops 0.7 % and 1.1 % above the
// optimum in Φ, and where the optimum schedules 6.4 % and 42.8 % longer
// under PSA than that point does (EXPERIMENTS.md, "Strassen sweep"). Their
// schedules are the exact solve's, pinned by the golden tests.
func TestExactSolveSchedulesLikeAnnealed(t *testing.T) {
	cal := trainedCM5(t)
	set := append(coldSpecs(t, cal), programInstance(t, cal, "cmm", 16, 4), programInstance(t, cal, "cmm", 16, 8),
		programInstance(t, cal, "cmm", 256, 64), programInstance(t, cal, "strassen", 128, 64))
	set = append(set, goldenSet(t, cal)...)
	stopsShort := map[string]bool{"strassen16-p16": true, "strassen16-p64": true}
	for _, in := range set {
		got, err := alloc.Solve(in.g, in.model, in.procs, alloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref := buildPhi(t, in.g, in.model, in.procs).annealed(t, 1)
		sGot, err := sched.Run(in.g, in.model, got.P, in.procs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sRef, err := sched.Run(in.g, in.model, ref.p, in.procs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(sGot.Alloc, sRef.Alloc) && sGot.Makespan == sRef.Makespan {
			continue
		}
		if stopsShort[in.name] && ref.capped > 0 && got.Phi < ref.phi*(1-1e-3) {
			t.Logf("%s: the reference stops short (%d stages at the cap, Φ %+.2f %%): T_psa %v, from the reference %v",
				in.name, ref.capped, 100*(ref.phi/got.Phi-1), sGot.Makespan, sRef.Makespan)
			continue
		}
		t.Errorf("%s: allocation %v (T_psa %v), annealed %v (%v)", in.name, sGot.Alloc, sGot.Makespan, sRef.Alloc, sRef.Makespan)
	}
}

// TestRoundingIsStableAcrossSolves is the acceptance test of the rounding
// band on the spec that pinned the solver for two roadmap anchors: cmm 56
// at p = 23 has two nodes within 0.05 % of the boundary at 6, the
// reference's solution leaves them above it (6.0028) and any more exact
// solve below (5.989), so plain RoundAndBound rounds them to 8 or to 4 by
// the solver's last digits. With the band, the schedule is the same from
// the reference, from it at tolerances 100 times tighter and from the
// allocator's exact solve.
func TestRoundingIsStableAcrossSolves(t *testing.T) {
	in := programInstance(t, trainedCM5(t), "cmm", 56, 23)
	pp := buildPhi(t, in.g, in.model, in.procs)
	solves := []struct {
		name string
		sol  solution
	}{
		{"reference", pp.annealed(t, 1)},
		{"reference, 100× tighter", pp.annealed(t, 1e-2)},
		{"exact", pp.exact(t)},
	}
	var first *sched.Schedule
	plainDiffers := false
	var firstPlain []int
	for _, sv := range solves {
		s, err := sched.Run(in.g, in.model, sv.sol.p, in.procs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := sched.RoundAndBound(sv.sol.p, in.procs, s.PB, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first, firstPlain = s, plain
			continue
		}
		if !slices.Equal(s.Alloc, first.Alloc) || s.Makespan != first.Makespan {
			t.Errorf("%s: allocation %v, T_psa %v; %s: %v, %v", sv.name, s.Alloc, s.Makespan, solves[0].name, first.Alloc, first.Makespan)
		}
		plainDiffers = plainDiffers || !slices.Equal(plain, firstPlain)
	}
	if !plainDiffers {
		t.Error("plain RoundAndBound rounds every solution alike: this spec no longer exercises the band")
	}
}

// TestSolverEvalBudget keeps the interior-point iteration counts from
// rotting: each budget is today's count with 25 % headroom, on the
// benchmark's programs (Strassen-128 and CMM-256 at p = 64, svc_hot's two
// specs), the CMM goldens, the Strassen sweep and the benchmark's 300 cold
// specs — and every solve must stop on its certificate, none at the
// iteration cap. (The annealed ladder it replaced spent 825 evaluations on
// Strassen-128 and 255 on CMM-256.)
func TestSolverEvalBudget(t *testing.T) {
	cal := trainedCM5(t)
	solve := func(in instance) int {
		r, err := alloc.Solve(in.g, in.model, in.procs, alloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Solver.Status != convex.GapConverged || !(r.Solver.Gap <= 1e-9) {
			t.Errorf("%s: stopped %v after %d iterations, certificate %v", in.name, r.Solver.Status, r.Solver.Iters, r.Solver.Gap)
		}
		return r.Solver.Iters
	}
	for _, c := range []struct {
		in     instance
		budget int
	}{
		{programInstance(t, cal, "strassen", 128, 64), 20}, // 16
		{programInstance(t, cal, "cmm", 256, 64), 14},      // 11
		{programInstance(t, cal, "cmm", 16, 4), 12},        // 9, svc_hot's two specs
		{programInstance(t, cal, "cmm", 16, 8), 10},        // 8
		{programInstance(t, cal, "cmm", 32, 4), 15},        // 12, the CMM goldens
		{programInstance(t, cal, "cmm", 32, 16), 13},       // 10
		{programInstance(t, cal, "cmm", 32, 64), 12},       // 9
	} {
		if iters := solve(c.in); iters > c.budget {
			t.Errorf("%s: %d iterations, budget %d", c.in.name, iters, c.budget)
		} else {
			t.Logf("%s: %d iterations", c.in.name, iters)
		}
	}
	total := 0
	for _, in := range strassenSweep(t, cal) {
		total += solve(in)
	}
	if total > 592 { // 473
		t.Errorf("the Strassen sweep took %d iterations, budget 592", total)
	}
	t.Logf("Strassen sweep: %d iterations", total)
	if testing.Short() {
		return
	}
	total = 0
	for _, in := range coldSpecs(t, cal) {
		total += solve(in)
	}
	if total > 4145 { // 3316
		t.Errorf("the 300 cold specs took %d iterations, budget 4 145", total)
	}
	t.Logf("300 cold specs: %d iterations", total)
}
