package alloc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"paradigm/internal/convex"
	"paradigm/internal/costmodel"
	"paradigm/internal/errs"
	"paradigm/internal/mdg"
	"paradigm/internal/obs"
)

var cm5Fit = costmodel.Model{Transfer: costmodel.TransferParams{
	Tss: 777.56e-6, Tps: 486.98e-9, Tsr: 465.58e-6, Tpr: 426.25e-9, Tn: 0,
}}

// forkJoin builds the Figure-1 shape: N1 -> {N2, N3} with α high enough
// that running N2 and N3 concurrently on half the machine beats running
// them back-to-back on the whole machine.
func forkJoin(alpha float64) *mdg.Graph {
	var g mdg.Graph
	n1 := g.AddNode(mdg.Node{Name: "N1", Alpha: alpha, Tau: 4})
	n2 := g.AddNode(mdg.Node{Name: "N2", Alpha: alpha, Tau: 12})
	n3 := g.AddNode(mdg.Node{Name: "N3", Alpha: alpha, Tau: 12})
	stop := g.AddNode(mdg.Node{Name: "STOP"})
	g.AddEdge(n1, n2)
	g.AddEdge(n1, n3)
	g.AddEdge(n2, stop)
	g.AddEdge(n3, stop)
	return &g
}

func TestSingleChainUsesFullMachine(t *testing.T) {
	// With no functional parallelism and no transfers, Φ = C_p = Σ t^C_i,
	// minimized by giving every node all processors.
	var g mdg.Graph
	a := g.AddNode(mdg.Node{Name: "a", Alpha: 0.1, Tau: 1})
	b := g.AddNode(mdg.Node{Name: "b", Alpha: 0.1, Tau: 2})
	g.AddEdge(a, b)
	res, err := Solve(&g, costmodel.Model{}, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.P {
		if p < 7.5 {
			t.Fatalf("node %d allocated %v, want ~8 (result %+v)", i, p, res)
		}
	}
	lp := func(tau float64) float64 {
		return costmodel.LoopParams{Alpha: 0.1, Tau: tau}.Processing(8)
	}
	want := lp(1) + lp(2)
	if math.Abs(res.Phi-want) > 0.02*want {
		t.Fatalf("Phi = %v, want ~%v", res.Phi, want)
	}
}

func TestForkJoinSplitsProcessors(t *testing.T) {
	g := forkJoin(0.25)
	const procs = 4
	res, err := Solve(g, costmodel.Model{}, procs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The two parallel branches should share the machine roughly evenly
	// rather than each taking all 4 processors.
	if res.P[1] > 3.2 || res.P[2] > 3.2 {
		t.Fatalf("branches not split: P = %v", res.P)
	}
	if math.Abs(res.P[1]-res.P[2]) > 0.4 {
		t.Fatalf("symmetric branches got asymmetric allocation: %v vs %v", res.P[1], res.P[2])
	}
	// Mixed parallelism must beat the SPMD baseline.
	spmd, err := SPMD(g, costmodel.Model{}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi >= spmd.Phi {
		t.Fatalf("convex allocation Phi %v should beat SPMD Phi %v", res.Phi, spmd.Phi)
	}
}

func TestAllocationsStayInBox(t *testing.T) {
	g := forkJoin(0.1)
	res, err := Solve(g, cm5Fit, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.P {
		if p < 1-1e-9 || p > 16+1e-9 {
			t.Fatalf("node %d allocation %v outside [1,16]", i, p)
		}
	}
	if res.Phi != math.Max(res.Ap, res.Cp) {
		t.Fatalf("Phi = %v, want max(%v, %v)", res.Phi, res.Ap, res.Cp)
	}
}

// TestSolverMatchesGridSearch compares the convex solution against a
// brute-force grid over allocations on a small graph with transfers.
func TestSolverMatchesGridSearch(t *testing.T) {
	var g mdg.Graph
	a := g.AddNode(mdg.Node{Name: "a", Alpha: 0.05, Tau: 0.5})
	b := g.AddNode(mdg.Node{Name: "b", Alpha: 0.3, Tau: 1})
	c := g.AddNode(mdg.Node{Name: "c", Alpha: 0.3, Tau: 1})
	d := g.AddNode(mdg.Node{Name: "d", Alpha: 0.05, Tau: 0.5})
	g.AddEdge(a, b, mdg.Transfer{Bytes: 32768, Kind: mdg.Transfer1D})
	g.AddEdge(a, c, mdg.Transfer{Bytes: 32768, Kind: mdg.Transfer2D})
	g.AddEdge(b, d, mdg.Transfer{Bytes: 32768, Kind: mdg.Transfer1D})
	g.AddEdge(c, d, mdg.Transfer{Bytes: 32768, Kind: mdg.Transfer1D})
	const procs = 8
	res, err := Solve(&g, cm5Fit, procs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive grid at quarter-processor resolution.
	best := math.Inf(1)
	grid := []float64{}
	for v := 1.0; v <= procs; v += 0.25 {
		grid = append(grid, v)
	}
	p := make([]float64, 4)
	for _, pa := range grid {
		p[0] = pa
		for _, pb := range grid {
			p[1] = pb
			for _, pc := range grid {
				p[2] = pc
				for _, pd := range grid {
					p[3] = pd
					phi, _, _, err := cm5Fit.Phi(&g, p, procs)
					if err != nil {
						t.Fatal(err)
					}
					if phi < best {
						best = phi
					}
				}
			}
		}
	}
	if res.Phi > best*1.01 {
		t.Fatalf("solver Phi %v worse than grid best %v", res.Phi, best)
	}
}

func TestIgnoreTransfersAblation(t *testing.T) {
	var g mdg.Graph
	a := g.AddNode(mdg.Node{Name: "a", Alpha: 0.05, Tau: 0.1})
	b := g.AddNode(mdg.Node{Name: "b", Alpha: 0.05, Tau: 0.1})
	g.AddEdge(a, b, mdg.Transfer{Bytes: 1 << 20, Kind: mdg.Transfer2D})
	full, err := Solve(&g, cm5Fit, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blind, err := Solve(&g, cm5Fit, 32, Options{IgnoreTransfers: true})
	if err != nil {
		t.Fatal(err)
	}
	// The transfer-blind allocation can be no better under the true model
	// (it optimizes the wrong objective); both report true-model Phi.
	if blind.Phi < full.Phi*(1-1e-6) {
		t.Fatalf("transfer-blind allocation (%v) beat transfer-aware (%v)", blind.Phi, full.Phi)
	}
}

func TestSPMDAllocation(t *testing.T) {
	g := forkJoin(0.2)
	res, err := SPMD(g, cm5Fit, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.P {
		if p != 16 {
			t.Fatalf("SPMD must allocate all processors, got %v", res.P)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	g := forkJoin(0.2)
	if _, err := Solve(g, cm5Fit, 0, Options{}); err == nil {
		t.Fatal("want error for procs=0")
	}
	if _, err := SPMD(g, cm5Fit, 0); err == nil {
		t.Fatal("want error for SPMD procs=0")
	}
	var cyc mdg.Graph
	a := cyc.AddNode(mdg.Node{})
	b := cyc.AddNode(mdg.Node{})
	cyc.AddEdge(a, b)
	cyc.AddEdge(b, a)
	if _, err := Solve(&cyc, cm5Fit, 4, Options{}); err == nil {
		t.Fatal("want error for cyclic graph")
	}
	if _, err := SPMD(&cyc, cm5Fit, 4); err == nil {
		t.Fatal("want error for cyclic SPMD")
	}
}

// TestOptimalityAgainstRandomPerturbations: no random feasible allocation
// beats the solver's Φ on random DAGs (global optimality, sampled).
func TestOptimalityAgainstRandomPerturbations(t *testing.T) {
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		var g mdg.Graph
		n := 3 + rng.Intn(4)
		for i := 0; i < n; i++ {
			g.AddNode(mdg.Node{
				Alpha: rng.Float64() * 0.4,
				Tau:   0.1 + rng.Float64(),
			})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					kind := mdg.Transfer1D
					if rng.Intn(2) == 1 {
						kind = mdg.Transfer2D
					}
					g.AddEdge(mdg.NodeID(i), mdg.NodeID(j),
						mdg.Transfer{Bytes: 1024 + rng.Intn(65536), Kind: kind})
				}
			}
		}
		const procs = 16
		res, err := Solve(&g, cm5Fit, procs, Options{})
		if err != nil {
			return false
		}
		p := make([]float64, n)
		for trial := 0; trial < 60; trial++ {
			for i := range p {
				p[i] = 1 + rng.Float64()*(procs-1)
			}
			phi, _, _, err := cm5Fit.Phi(&g, p, procs)
			if err != nil {
				return false
			}
			if phi < res.Phi*(1-5e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolveForkJoin16(b *testing.B) {
	g := forkJoin(0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, cm5Fit, 16, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Graceful degradation (PR 3) -------------------------------------------

// failingIter is an iteration hook that fails every solve, the injection
// point for solver-breakdown tests.
func failingIter(convex.Result) error {
	return fmt.Errorf("injected solver breakdown")
}

func TestFallbackHeuristicOnSolverBreakdown(t *testing.T) {
	g := forkJoin(0.1)
	model := cm5Fit
	opts := Options{FallbackHeuristic: true, onIter: failingIter}
	rec := obs.NewRecorder()
	opts.Observer = rec
	res, err := SolveCtx(context.Background(), g, model, 8, opts)
	if err != nil {
		t.Fatalf("degraded solve failed: %v", err)
	}
	if math.IsNaN(res.Phi) || math.IsInf(res.Phi, 0) || res.Phi <= 0 {
		t.Fatalf("fallback Phi = %v", res.Phi)
	}
	// A failed solve goes straight to the heuristic: one Replan, no retry.
	var stages []string
	for _, e := range rec.Events() {
		if r, ok := e.(obs.Replan); ok {
			stages = append(stages, r.Stage)
		}
	}
	if len(stages) != 1 || stages[0] != "heuristic-fallback" {
		t.Fatalf("Replan stages %v, want [heuristic-fallback]", stages)
	}
	// Sanity: the fallback allocation is schedulable.
	for _, p := range res.P {
		if p < 1 || p > 8 {
			t.Fatalf("fallback allocation out of box: %v", res.P)
		}
	}
}

func TestNoFallbackPreservesError(t *testing.T) {
	g := forkJoin(0.1)
	opts := Options{onIter: failingIter}
	if _, err := SolveCtx(context.Background(), g, cm5Fit, 8, opts); err == nil {
		t.Fatal("want solver error without FallbackHeuristic")
	}
}

func TestFallbackDoesNotMaskCancellation(t *testing.T) {
	g := forkJoin(0.1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveCtx(ctx, g, cm5Fit, 8, Options{FallbackHeuristic: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFallbackDoesNotMaskInfeasible(t *testing.T) {
	g := forkJoin(0.1)
	_, err := SolveCtx(context.Background(), g, cm5Fit, 0, Options{FallbackHeuristic: true})
	if !errors.Is(err, errs.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestFallbackOffPathUnchanged(t *testing.T) {
	// With a healthy solver, FallbackHeuristic must not change the result.
	g := forkJoin(0.1)
	a, err := SolveCtx(context.Background(), g, cm5Fit, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveCtx(context.Background(), g, cm5Fit, 8, Options{FallbackHeuristic: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Phi != b.Phi {
		t.Fatalf("healthy solve changed under FallbackHeuristic: %v vs %v", a.Phi, b.Phi)
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatalf("allocation %d changed: %v vs %v", i, a.P[i], b.P[i])
		}
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	if _, err := Solve(forkJoin(0.9), cm5Fit, 8, Options{Backend: "simplex"}); err == nil {
		t.Fatal("unknown backend must error")
	}
}
