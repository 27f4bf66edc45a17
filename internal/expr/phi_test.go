package expr_test

import (
	"math"
	"slices"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/convex"
	"paradigm/internal/costmodel"
	"paradigm/internal/expr"
	"paradigm/internal/machine"
	"paradigm/internal/mdg"
	"paradigm/internal/prog"
	"paradigm/internal/programs"
	"paradigm/internal/trainsets"
)

// phiProblem is the allocator's convex program for one (MDG, model,
// procs), rebuilt here from the cost model's public expression builders
// because the allocator's own copy is unexported and this package cannot
// be imported by a test inside it. It mirrors alloc's compile step for
// step — the quotient program over g.Orbits(), one variable per
// automorphism orbit — and TestTapeMatchesReferenceOnSolverTrajectory
// proves the two are the same program by reproducing alloc.Solve's
// allocation exactly from the rebuilt program's epigraph form.
type phiProblem struct {
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
	p := &phiProblem{orbit: orbit, lower: make([]float64, k), upper: make([]float64, k)}
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

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func headlinePrograms(t testing.TB) (*trainsets.Calibration, map[string]*prog.Program) {
	t.Helper()
	cal, err := trainsets.Calibrate(machine.CM5(64))
	if err != nil {
		t.Fatal(err)
	}
	cmm, err := programs.ComplexMatMul(256, cal)
	if err != nil {
		t.Fatal(err)
	}
	strassen, err := programs.Strassen(128, cal)
	if err != nil {
		t.Fatal(err)
	}
	return cal, map[string]*prog.Program{"cmm256": cmm, "strassen128": strassen}
}

// TestTapeMatchesReferenceOnSolverTrajectory runs the annealed solve —
// the ladder the allocator used before its exact solve, which ADMM's local
// solves still run on the tape — of CMM-256 and Strassen-128 at p=64 on the
// trained CM-5 with an objective that evaluates Φ twice, through the tape
// and through the reference interpreter, and requires the value and every
// gradient component to agree bit for bit at the start point and at every
// point the line search visits after it (the post-backtrack
// re-evaluations the forward memo answers among them), 825 of them on
// Strassen-128 and 255 on CMM-256. That the rebuilt Φ is the allocator's
// program is checked on the way: its epigraph form, solved exactly, lands
// where alloc.Solve does, bit for bit.
func TestTapeMatchesReferenceOnSolverTrajectory(t *testing.T) {
	cal, progs := headlinePrograms(t)
	model := cal.Model()
	const procs = 64
	trajectory := map[string]int{"cmm256": 255, "strassen128": 825}
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			want, err := alloc.Solve(p.G, model, procs, alloc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pp := buildPhi(t, p.G, model, procs)
			n := len(pp.upper)
			x0 := make([]float64, n)
			for i := range x0 {
				x0[i] = pp.upper[i] * 0.5
			}
			ep, err := pp.eg.Epigraph(pp.phi)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := convex.MinimizeEpigraph(ep, pp.lower, pp.upper, x0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range pp.orbit {
				if p := math.Exp(exact.X[c]); !sameBits(p, want.P[i]) {
					t.Fatalf("p[%d] = %v, alloc.Solve gave %v: not the same program", i, p, want.P[i])
				}
			}

			ev := expr.NewEvaluator(&pp.eg)
			ref := expr.NewReferenceEvaluator(&pp.eg)
			refGrad := make([]float64, n)
			points := 0
			obj := convex.TempFunc(func(temp float64, x, grad []float64) float64 {
				points++
				if grad == nil {
					got, want := ev.Eval(pp.phi, x, temp), ref.Eval(pp.phi, x, temp)
					if !sameBits(got, want) {
						t.Fatalf("point %d (temp %v): tape value %v, reference %v", points, temp, got, want)
					}
					return got
				}
				got, want := ev.EvalGrad(pp.phi, x, temp, grad), ref.EvalGrad(pp.phi, x, temp, refGrad)
				if !sameBits(got, want) {
					t.Fatalf("point %d (temp %v): tape value %v, reference %v", points, temp, got, want)
				}
				for i := range refGrad {
					if !sameBits(grad[i], refGrad[i]) {
						t.Fatalf("point %d (temp %v): tape ∂Φ/∂x[%d] = %v, reference %v", points, temp, i, grad[i], refGrad[i])
					}
				}
				return got
			})
			start := 0.05 * ev.Eval(pp.phi, x0, 0)
			sol, err := convex.MinimizeAnnealed(obj, pp.lower, pp.upper, x0, convex.AnnealOptions{
				StartTemp: start, EndTemp: start * 1e-5,
				Inner: convex.Options{MaxIter: 4000},
			})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Evals != trajectory[name] {
				t.Fatalf("the ladder took %d evaluations, want %d: the trajectory moved", sol.Evals, trajectory[name])
			}
			t.Logf("%d points bit-identical; %+v, %d exp per EvalGrad", points, pp.eg.Shape(), pp.eg.Shape().ExpsPerEvalGrad())
		})
	}
}

// TestEvalOfStrassenPhiDoesNotAllocate is the allocation gate on the
// solver's hot path: steady-state Eval and EvalGrad of the Strassen-128
// Φ allocate nothing, whether the forward memo answers or not.
func TestEvalOfStrassenPhiDoesNotAllocate(t *testing.T) {
	cal, progs := headlinePrograms(t)
	pp := buildPhi(t, progs["strassen128"].G, cal.Model(), 64)
	pool := expr.NewEvaluatorPool(&pp.eg)
	ev := pool.Get()
	defer pool.Put(ev)
	n := len(pp.upper)
	xs := [2][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		xs[0][i], xs[1][i] = pp.upper[i]*0.5, pp.upper[i]*0.25
	}
	grad := make([]float64, n)
	temp := 0.05 * ev.Eval(pp.phi, xs[0], 0)
	i := 0
	if a := testing.AllocsPerRun(50, func() {
		i++
		ev.Eval(pp.phi, xs[i&1], temp)             // forward sweep
		ev.EvalGrad(pp.phi, xs[i&1], temp, grad)   // backward sweep only
		ev.EvalGrad(pp.phi, xs[1-i&1], temp, grad) // both
	}); a != 0 {
		t.Fatalf("steady-state Eval/EvalGrad of the Strassen-128 Φ allocate %v times per run, want 0", a)
	}
}

// TestEpigraphOfHeadlinePrograms pins the epigraph form of the allocator's
// two headline programs at p=64: Strassen-128's 20 orbit variables gain 53
// epigraph variables under 108 constraints, CMM-256's 5 gain 9 under 18.
func TestEpigraphOfHeadlinePrograms(t *testing.T) {
	cal, progs := headlinePrograms(t)
	for name, want := range map[string][3]int{"strassen128": {20, 73, 108}, "cmm256": {5, 14, 18}} {
		pp := buildPhi(t, progs[name].G, cal.Model(), 64)
		ep, err := pp.eg.Epigraph(pp.phi)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]int{ep.NumX, ep.NumVars, ep.NumConstraints()}; got != want {
			t.Errorf("%s: (x, variables, constraints) = %v, want %v", name, got, want)
		}
	}
}
