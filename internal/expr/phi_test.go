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
// automorphism orbit — and TestEpigraphOfHeadlinePrograms proves the two
// are the same program by reproducing alloc.Solve's allocation exactly
// from the rebuilt program's epigraph form.
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

// TestEpigraphOfHeadlinePrograms pins the epigraph form of the allocator's
// two headline programs at p=64: Strassen-128's 20 orbit variables gain 53
// epigraph variables under 108 constraints, CMM-256's 5 gain 9 under 18.
// That the rebuilt Φ is the allocator's program is checked on the way: its
// epigraph form, solved exactly, lands where alloc.Solve does, bit for bit.
func TestEpigraphOfHeadlinePrograms(t *testing.T) {
	cal, progs := headlinePrograms(t)
	const procs = 64
	for name, want := range map[string][3]int{"strassen128": {20, 73, 108}, "cmm256": {5, 14, 18}} {
		g := progs[name].G
		pp := buildPhi(t, g, cal.Model(), procs)
		ep, err := pp.eg.Epigraph(pp.phi)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]int{ep.NumX, ep.NumVars, ep.NumConstraints()}; got != want {
			t.Errorf("%s: (x, variables, constraints) = %v, want %v", name, got, want)
		}
		x0 := make([]float64, len(pp.upper))
		for i := range x0 {
			x0[i] = pp.upper[i] * 0.5
		}
		exact, err := convex.MinimizeEpigraph(ep, pp.lower, pp.upper, x0, nil)
		if err != nil {
			t.Fatal(err)
		}
		solved, err := alloc.Solve(g, cal.Model(), procs, alloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range pp.orbit {
			if p := math.Exp(exact.X[c]); !sameBits(p, solved.P[i]) {
				t.Fatalf("%s: p[%d] = %v, alloc.Solve gave %v: not the same program", name, i, p, solved.P[i])
			}
		}
	}
}
