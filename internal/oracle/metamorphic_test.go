package oracle

import (
	"testing"

	"paradigm/internal/alloc"
)

// randomAlloc draws a feasible continuous allocation in [1, procs]^n.
func randomAlloc(seed uint64, n, procs int) []float64 {
	r := newRNG(seed)
	p := make([]float64, n)
	for i := range p {
		p[i] = 1 + r.float()*float64(procs-1)
	}
	return p
}

// --- Checker-level relations (exact, fixed allocation) ---------------------

func TestMetamorphicCostScaling(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		g := RandomGraph(seed, GenOptions{GridKinds: seed%2 == 0})
		p := randomAlloc(seed+1000, g.NumNodes(), 8)
		for _, k := range []float64{0.25, 2, 1000} {
			if err := CheckCostScaling(g, cm5Fit, 8, p, k, Options{}); err != nil {
				t.Fatalf("seed %d, k = %v: %v", seed, k, err)
			}
		}
	}
}

func TestMetamorphicProcMonotonicity(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		g := RandomGraph(seed, GenOptions{})
		p := randomAlloc(seed+2000, g.NumNodes(), 4)
		if err := CheckProcMonotonicity(g, cm5Fit, p, 4, 8, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckProcMonotonicity(g, cm5Fit, p, 4, 64, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestMetamorphicRelabelInvariance(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		g := RandomGraph(seed, GenOptions{GridKinds: seed%3 == 0})
		n := g.NumNodes()
		p := randomAlloc(seed+3000, n, 8)
		perm := RandomPerm(seed+4000, n)
		if err := CheckRelabelInvariance(g, cm5Fit, 8, p, perm, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestMetamorphicRelabelExhaustiveBracket: the exhaustive [Best, Worst]
// makespan bracket is a set over linear extensions, so it cannot depend on
// node labels. (The PSA itself tie-breaks on node id, so its single
// makespan is NOT exactly relabel-invariant — the bracket is.)
func TestMetamorphicRelabelExhaustiveBracket(t *testing.T) {
	o := Options{}.withDefaults()
	for seed := uint64(1); seed <= 30; seed++ {
		g := RandomGraph(seed, GenOptions{})
		if _, _, err := g.EnsureStartStop(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		n := g.NumNodes()
		al := make([]int, n)
		r := newRNG(seed + 5000)
		for i := range al {
			al[i] = 1 << r.intn(4) // 1, 2, 4 or 8
		}
		ex0, err := ExhaustiveSchedules(g, cm5Fit, al, 8, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		perm := RandomPerm(seed+6000, n)
		rg, err := g.Relabel(perm)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ex1, err := ExhaustiveSchedules(rg, cm5Fit, PermuteInts(al, perm), 8, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ex0.Count != ex1.Count {
			t.Fatalf("seed %d: extension count changed under relabeling: %d -> %d", seed, ex0.Count, ex1.Count)
		}
		if !o.close(ex0.Best, ex1.Best) || !o.close(ex0.Worst, ex1.Worst) {
			t.Fatalf("seed %d: bracket moved under relabeling: [%g, %g] -> [%g, %g]",
				seed, ex0.Best, ex0.Worst, ex1.Best, ex1.Worst)
		}
	}
}

// --- Solver-level relations (alloc.Solve end to end) -----------------------

// TestMetamorphicSolverTauScaling: scaling every τ_i and every transfer
// coefficient by k makes the objective exactly k-homogeneous, so the
// solver's optimal Φ must scale by k too. The solve's trajectory is not
// bit-identical across scales, so a 1% band absorbs solver noise.
func TestMetamorphicSolverTauScaling(t *testing.T) {
	const k = 64.0
	for seed := uint64(1); seed <= 20; seed++ {
		g := RandomGraph(seed, GenOptions{})
		r0, err := alloc.Solve(g, cm5Fit, 8, alloc.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r1, err := alloc.Solve(ScaleTau(g, k), ScaleModel(cm5Fit, k), 8, alloc.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ratio := r1.Phi / (k * r0.Phi); ratio < 0.99 || ratio > 1.01 {
			t.Errorf("seed %d: Φ did not scale with τ: %g vs %g·%g (ratio %g)",
				seed, r1.Phi, k, r0.Phi, ratio)
		}
	}
}

// TestMetamorphicSolverProcMonotonicity: a larger machine can always
// emulate a smaller one, so the solved optimum must not get worse when
// processors are added.
func TestMetamorphicSolverProcMonotonicity(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := RandomGraph(seed, GenOptions{})
		r4, err := alloc.Solve(g, cm5Fit, 4, alloc.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r16, err := alloc.Solve(g, cm5Fit, 16, alloc.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r16.Phi > r4.Phi*1.01 {
			t.Errorf("seed %d: Φ rose from %g to %g when the machine grew 4 -> 16",
				seed, r4.Phi, r16.Phi)
		}
	}
}
