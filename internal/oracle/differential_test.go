package oracle

import (
	"math"
	"slices"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/costmodel"
	"paradigm/internal/expr"
	"paradigm/internal/mdg"
	"paradigm/internal/sched"
)

// The differential suites pit the production solvers against the exact
// references on a population of generated small MDGs. The brute-force grid
// evaluates only feasible points of the continuous program, so its Φ upper-
// bounds the true optimum: the convex solver, certified within a duality
// gap of 1e-9 in log units of the optimum, must come in at or below it to
// that certificate's resolution. The exhaustive scheduler brackets every
// linear extension, so the PSA — one particular linear extension under the
// same placement rule — must land inside [Best, Worst].
//
// The model is the CM-5 fit with Tn = 0, where the allocator's objective is
// the exact Φ. With Tn > 0 it is not: the network cost L/max(p_i,p_j)·t_n
// is no generalized posynomial, so the allocator charges its upper bound
// L/p_i·t_n (costmodel's relaxed rows) and minimises that relaxed Φ̃ ≥ Φ.
// TestDifferentialAllocVsBruteForceNetwork races that population at
// Tn = 6e-7, where Solve's exact Φ may lie above the brute-force optimum,
// and holds it to the bound the relaxation guarantees.

const diffSeeds = 200

// certTol is the solver's certificate: its Φ is within a factor
// e^{1e-9} of the optimum, so never above a feasible point's by more.
const certTol = 1e-9

func TestDifferentialAllocVsBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("differential population test")
	}
	const procs = 8
	worst := 0.0
	for seed := uint64(1); seed <= diffSeeds; seed++ {
		g := RandomGraph(seed, GenOptions{})
		r, err := alloc.Solve(g, cm5Fit, procs, alloc.Options{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		if err := CheckAllocation(g, cm5Fit, procs, r, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bf, err := BruteForceAlloc(g, cm5Fit, procs, BruteForceOptions{})
		if err != nil {
			t.Fatalf("seed %d: brute force: %v", seed, err)
		}
		if r.Phi > bf.Phi*(1+certTol) {
			t.Errorf("seed %d: Solve Φ = %.12g exceeds the brute-force grid's %.12g (ratio − 1 = %.3g, n = %d)",
				seed, r.Phi, bf.Phi, r.Phi/bf.Phi-1, g.NumNodes())
		}
		if ratio := r.Phi / bf.Phi; ratio > worst {
			worst = ratio
		}
	}
	t.Logf("%d graphs, worst Solve/BruteForce Φ ratio = %.12f", diffSeeds, worst)
}

// TestDifferentialAllocVsBruteForceNetwork runs the same population on a
// machine with a network cost (Tn = 6e-7). Solve minimises the relaxed
// Φ̃, an upper bound on Φ, so its exact Φ can exceed the brute-force
// optimum Φ_bf; what holds by construction is
//
//	Φ(P_solve) ≤ Φ̃(P_solve) ≤ Φ̃(P_bf)·(1 + certTol).
//
// The test asserts that and logs the worst Φ/Φ_bf: the price of the
// relaxation.
func TestDifferentialAllocVsBruteForceNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("differential population test")
	}
	const procs = 8
	model := cm5Fit
	model.Transfer.Tn = 6e-7
	worst := 0.0
	for seed := uint64(1); seed <= diffSeeds; seed++ {
		g := RandomGraph(seed, GenOptions{})
		r, err := alloc.Solve(g, model, procs, alloc.Options{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		bf, err := BruteForceAlloc(g, model, procs, BruteForceOptions{})
		if err != nil {
			t.Fatalf("seed %d: brute force: %v", seed, err)
		}
		if bound := relaxedPhi(g, model.Transfer, bf.P, procs); r.Phi > bound*(1+certTol) {
			t.Errorf("seed %d: Solve Φ = %.12g exceeds the relaxed objective at the brute-force point, %.12g (n = %d)",
				seed, r.Phi, bound, g.NumNodes())
		}
		if ratio := r.Phi / bf.Phi; ratio > worst {
			worst = ratio
		}
	}
	t.Logf("%d graphs at Tn = %g, worst Solve/BruteForce Φ ratio = %.12f", diffSeeds, model.Transfer.Tn, worst)
}

// relaxedPhi evaluates Φ̃ = max(A_p, C_p) at p with the node and edge
// weights the allocator builds — costmodel's ProcessingExpr and
// EdgeTransferExprs — at hard max.
func relaxedPhi(g *mdg.Graph, tp costmodel.TransferParams, p []float64, procs int) float64 {
	var eg expr.Graph
	n := g.NumNodes()
	weight := make([]expr.ID, n)
	for i, nd := range g.Nodes {
		weight[i] = costmodel.ProcessingExpr(&eg, costmodel.LoopParams{Alpha: nd.Alpha, Tau: nd.Tau}, i)
	}
	net := make([]expr.ID, len(g.Edges))
	for k, e := range g.Edges {
		var send, recv expr.ID
		send, net[k], recv = costmodel.EdgeTransferExprs(&eg, tp, e, int(e.From), int(e.To))
		weight[e.From] = eg.Sum(weight[e.From], send)
		weight[e.To] = eg.Sum(weight[e.To], recv)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Log(p[i])
	}
	ev := expr.NewEvaluator(&eg)
	ap := 0.0
	for i := range weight {
		ap += ev.Eval(weight[i], x, 0) * p[i]
	}
	ap /= float64(procs)
	_, cp, err := g.CriticalPath(
		func(i mdg.NodeID) float64 { return ev.Eval(weight[i], x, 0) },
		func(e mdg.Edge) float64 { k, _ := g.EdgeIndex(e.From, e.To); return ev.Eval(net[k], x, 0) },
	)
	if err != nil {
		panic(err)
	}
	return math.Max(ap, cp)
}

// TestDifferentialAllocVsBruteForcePlanted is the same race on graphs
// with planted automorphisms, the ones the allocator solves over their
// orbits: the reduced program's optimum must still be the global one,
// never above what brute force finds over every node separately.
func TestDifferentialAllocVsBruteForcePlanted(t *testing.T) {
	if testing.Short() {
		t.Skip("differential population test")
	}
	const procs = 8
	worst := 0.0
	reduced := 0
	for seed := uint64(1); seed <= diffSeeds; seed++ {
		g := PlantedGraph(seed, GenOptions{})
		orbit, err := g.Orbits()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if slices.Max(orbit)+1 < g.NumNodes() {
			reduced++
		}
		r, err := alloc.Solve(g, cm5Fit, procs, alloc.Options{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		if err := CheckAllocation(g, cm5Fit, procs, r, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bf, err := BruteForceAlloc(g, cm5Fit, procs, BruteForceOptions{})
		if err != nil {
			t.Fatalf("seed %d: brute force: %v", seed, err)
		}
		if ratio := r.Phi / bf.Phi; ratio > worst {
			worst = ratio
		}
	}
	// The brute-force grid is a set of feasible points, so a global
	// optimum comes in at or below it.
	if worst > 1+certTol {
		t.Errorf("worst Solve/BruteForce Φ ratio %.12f on planted graphs, want <= 1 + %g", worst, certTol)
	}
	if reduced != diffSeeds {
		t.Errorf("only %d of %d planted graphs have a nontrivial orbit", reduced, diffSeeds)
	}
	t.Logf("%d planted graphs, worst Solve/BruteForce Φ ratio = %.12f", diffSeeds, worst)
}

func TestDifferentialPSAVsExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("differential population test")
	}
	const procs = 8
	bracketed := 0
	for seed := uint64(1); seed <= diffSeeds; seed++ {
		g := RandomGraph(seed, GenOptions{})
		if _, _, err := g.EnsureStartStop(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, err := alloc.Solve(g, cm5Fit, procs, alloc.Options{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		s, err := sched.Run(g, cm5Fit, r.P, procs, sched.Options{})
		if err != nil {
			t.Fatalf("seed %d: sched: %v", seed, err)
		}
		if err := CheckSchedule(g, cm5Fit, s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ex, err := ExhaustiveSchedules(g, cm5Fit, s.Alloc, procs, 0)
		if err != nil {
			t.Fatalf("seed %d: exhaustive: %v", seed, err)
		}
		const tol = 1e-9
		if s.Makespan > ex.Worst*(1+tol) {
			t.Errorf("seed %d: PSA makespan %g exceeds exhaustive worst-case %g over %d extensions",
				seed, s.Makespan, ex.Worst, ex.Count)
		}
		if s.Makespan < ex.Best*(1-tol) {
			t.Errorf("seed %d: PSA makespan %g beats exhaustive best %g — reference placement diverged",
				seed, s.Makespan, ex.Best)
		}
		bracketed++
	}
	t.Logf("%d schedules bracketed by their exhaustive references", bracketed)
}

// TestBruteForceRefinementMonotone checks the reference against itself:
// refinement rounds may only improve on the coarse grid.
func TestBruteForceRefinementMonotone(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g := RandomGraph(seed, GenOptions{})
		coarse, err := BruteForceAlloc(g, cm5Fit, 8, BruteForceOptions{RefineRounds: -1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fine, err := BruteForceAlloc(g, cm5Fit, 8, BruteForceOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fine.Phi > coarse.Phi {
			t.Errorf("seed %d: refinement worsened Φ: %g -> %g", seed, coarse.Phi, fine.Phi)
		}
	}
}

func TestExhaustiveSchedulesOverflow(t *testing.T) {
	g := RandomGraph(2, GenOptions{})
	if _, _, err := g.EnsureStartStop(); err != nil {
		t.Fatal(err)
	}
	al := make([]int, g.NumNodes())
	for i := range al {
		al[i] = 1
	}
	if _, err := ExhaustiveSchedules(g, cm5Fit, al, 4, 1); err == nil {
		t.Fatal("limit 1 must overflow on any graph with > 1 extension")
	}
}

func TestBruteForceRejectsLargeGraph(t *testing.T) {
	var g mdg.Graph
	for i := 0; i < 7; i++ {
		g.AddNode(mdg.Node{Name: string(rune('a' + i)), Alpha: 0.5, Tau: 1})
	}
	if _, err := BruteForceAlloc(&g, cm5Fit, 8, BruteForceOptions{}); err == nil {
		t.Fatal("brute force accepted a graph above its tractability bound")
	}
}
