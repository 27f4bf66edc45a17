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

// annealed is the signature MinimizeAnnealed and its reference share.
type annealed func(convex.TempObjective, []float64, []float64, []float64, convex.AnnealOptions) (convex.Result, error)

// solution is one solve of the program, scored the way alloc.Solve scores
// it: the exact (hard-max) Φ at the final point.
type solution struct {
	p       []float64
	phi     float64
	solver  convex.Result
	capped  int     // temperature stages that ended at the iteration cap
	endTemp float64 // the ladder's last temperature
}

// solve runs the single-start ladder the allocator annealed down before
// its exact solve (box midpoint, start temperature 5 % of Φ there, five
// decades, 4 000 iterations a stage, GradTol and FTol scaled by tighten)
// with the given minimizer.
func (pp *phiProblem) solve(t testing.TB, minimize annealed, tighten float64) solution {
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
	out := solution{endTemp: start * 1e-5}
	inner := convex.Options{MaxIter: 4000}
	if tighten != 1 {
		inner.GradTol, inner.FTol = 1e-8*tighten, 1e-12*tighten
	}
	sol, err := minimize(obj, pp.lower, pp.upper, x0, convex.AnnealOptions{
		StartTemp: start, EndTemp: out.endTemp, Inner: inner,
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

// oracleSuite is the oracle's 200 generated MDGs at p = 8.
func oracleSuite() []instance {
	var out []instance
	for seed := uint64(1); seed <= 200; seed++ {
		out = append(out, instance{fmt.Sprintf("oracle-%d", seed), oracle.RandomGraph(seed, oracle.GenOptions{}), cm5Fit, 8})
	}
	return out
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
	for _, in := range []instance{programInstance(t, cal, "cmm", 56, 23), programInstance(t, cal, "strassen", 16, 16), oracleSuite()[6]} {
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

// TestMinimizeNoWorseThanReference is the minimizer's differential gate.
// The referee is Φ, the quantity the convex program minimizes — never
// T_psa, which the true optimum of a communication-bound problem can
// raise (EXPERIMENTS.md, "Strassen sweep"). On every instance the
// quasi-Newton minimizer must land no higher than the spectral-gradient
// reference to 1e-9 relative, and over each population strictly lower in
// the mean, because the reference stops short wherever the problem is
// communication-bound. One allowance: where the new point is also the
// better minimizer of what both were actually handed — the smoothed
// objective at EndTemp — the reference merely stopped short of it, and
// the exact Φ of two such points differs on the scale of the temperature
// (Φ <= f_T <= Φ + T·log k), not of the stop rule; there the bound is a
// tenth of EndTemp. It is used by 2 of the 536 instances (oracle seeds 116
// and 118, two-variable problems where the reference ends 6e-10 above the
// smoothed minimum and reads 1.3e-8 lower in Φ for it).
//
// On the program populations the schedules are compared as well: with the
// rounding band on, both minimizers must produce the same sched.Alloc on
// every one of the benchmark's 300 cold specs, which is the property that
// unpins later solver changes from the rounding cliff. Run with -v for the
// per-configuration table EXPERIMENTS.md quotes.
func TestMinimizeNoWorseThanReference(t *testing.T) {
	cal := trainedCM5(t)
	type population struct {
		name      string
		set       []instance
		schedules bool // compare T_psa (the instances have START/STOP)
		sameAlloc bool // ... and require the same rounded allocation
	}
	populations := []population{
		{name: "oracle200", set: oracleSuite()},
		{name: "goldens", set: goldenSet(t, cal), schedules: true},
		{name: "strassen-sweep", set: strassenSweep(t, cal), schedules: true},
	}
	if !testing.Short() {
		populations = append(populations, population{name: "svc-cold300", set: coldSpecs(t, cal), schedules: true, sameAlloc: true})
	}
	for _, pop := range populations {
		t.Run(pop.name, func(t *testing.T) {
			var sumNew, sumRef float64
			var evalsNew, evalsRef, higher, allowed, cappedNew, cappedRef, moved int
			for _, in := range pop.set {
				pp := buildPhi(t, in.g, in.model, in.procs)
				got := pp.solve(t, convex.MinimizeAnnealed, 1)
				ref := pp.solve(t, convex.RefMinimizeAnnealed, 1)
				bound := ref.phi * (1 + 1e-9)
				if got.phi > bound && got.solver.F <= ref.solver.F {
					allowed++
					bound += got.endTemp / 10
				}
				if got.phi > bound {
					t.Errorf("%s: Φ = %.12g, reference %.12g (ratio − 1 = %.3g; smoothed objective %.15g vs %.15g)",
						in.name, got.phi, ref.phi, got.phi/ref.phi-1, got.solver.F, ref.solver.F)
				}
				if got.phi > ref.phi {
					higher++
				}
				sumNew += got.phi
				sumRef += ref.phi
				evalsNew += got.solver.Evals
				evalsRef += ref.solver.Evals
				cappedNew += got.capped
				cappedRef += ref.capped
				if !pop.schedules {
					continue
				}
				sNew, err := sched.Run(in.g, in.model, got.p, in.procs, sched.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sRef, err := sched.Run(in.g, in.model, ref.p, in.procs, sched.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(sNew.Alloc, sRef.Alloc) {
					moved++
					if pop.sameAlloc {
						t.Errorf("%s: allocation %v, from the reference's solution %v", in.name, sNew.Alloc, sRef.Alloc)
					}
				}
				t.Logf("%-16s Φ %.9g → %.9g (%+.2f %%)  T_psa %.9g → %.9g (%+.2f %%)  evals %d → %d, capped stages %d → %d",
					in.name, ref.phi, got.phi, 100*(got.phi/ref.phi-1), sRef.Makespan, sNew.Makespan, 100*(sNew.Makespan/sRef.Makespan-1),
					ref.solver.Evals, got.solver.Evals, ref.capped, got.capped)
			}
			n := float64(len(pop.set))
			if sumNew >= sumRef {
				t.Errorf("mean Φ %.12g is not below the reference's %.12g", sumNew/n, sumRef/n)
			}
			t.Logf("%d instances: mean Φ %.12g (reference %.12g), %d read higher, %d of them by more than 1e-9 (allowance); evaluations %d (reference %d); stages at the iteration cap %d (reference %d); %d rounded allocations differ",
				len(pop.set), sumNew/n, sumRef/n, higher, allowed, evalsNew, evalsRef, cappedNew, cappedRef, moved)
		})
	}
}

// TestRoundingIsStableAcrossSolves is the acceptance test of the rounding
// band on the spec that pinned the solver for two roadmap anchors: cmm 56
// at p = 23 has two nodes within 0.05 % of the boundary at 6, the
// reference's solution leaves them above it (6.0028) and any more exact
// solve below (5.989), so plain RoundAndBound rounds them to 8 or to 4 by
// the solver's last digits. With the band, the schedule is the same from
// the reference, from the new minimizer at the allocator's tolerances and
// from it at tolerances 100 times tighter.
func TestRoundingIsStableAcrossSolves(t *testing.T) {
	in := programInstance(t, trainedCM5(t), "cmm", 56, 23)
	pp := buildPhi(t, in.g, in.model, in.procs)
	solves := []struct {
		name string
		sol  solution
	}{
		{"reference", pp.solve(t, convex.RefMinimizeAnnealed, 1)},
		{"quasi-Newton", pp.solve(t, convex.MinimizeAnnealed, 1)},
		{"quasi-Newton, 100× tighter", pp.solve(t, convex.MinimizeAnnealed, 1e-2)},
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
