package alloc_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/convex"
	"paradigm/internal/obs"
	"paradigm/internal/oracle"
)

// goldenStarts builds the off-midpoint start points: the golden-ratio
// low-discrepancy rule, with a per-coordinate stagger so no two starts or
// coordinates coincide, kept 10 % away from the box faces where the
// smoothed objective is flattest.
func goldenStarts(upper []float64) [][]float64 {
	const (
		golden  = 0.6180339887498949 // 1/φ
		stagger = 0.3819660112501051 // 1/φ²
	)
	starts := make([][]float64, 3)
	for s := range starts {
		x0 := make([]float64, len(upper))
		for i := range x0 {
			f := math.Mod(0.5+float64(s+1)*golden+float64(i)*stagger, 1)
			x0[i] = upper[i] * (0.1 + 0.8*f)
		}
		starts[s] = x0
	}
	return starts
}

// startTol bounds the relative exact-Φ gap between solves of one program
// from different start points.
const startTol = 1e-5

// TestSolveIsStartIndependent is why the allocator solves from one start:
// after x = ln p the program is convex with a unique minimum (paper §2),
// so three golden-ratio interior starts, each solved to completion, land
// within startTol relative exact Φ of alloc.Solve's midpoint start. The
// populations are the oracle's 200 generated MDGs, 200 planted-symmetry
// MDGs, determinism_test's 50, the Strassen sweep and the benchmark's 300
// cold CMM specs: 780 instances. Run with -v for the worst gap of each.
func TestSolveIsStartIndependent(t *testing.T) {
	cal := trainedModel(t)
	model := cal.Model()
	var randomGen, planted, determinism, sweep, cold []instance
	for seed := uint64(1); seed <= 200; seed++ {
		randomGen = append(randomGen, instance{fmt.Sprintf("oracle-%d", seed), oracle.RandomGraph(seed, oracle.GenOptions{}), cm5Fit, 16})
		planted = append(planted, instance{fmt.Sprintf("planted-%d", seed), oracle.PlantedGraph(seed, oracle.GenOptions{}), cm5Fit, 8})
	}
	for seed := uint64(1); seed <= 50; seed++ {
		determinism = append(determinism, instance{fmt.Sprintf("determinism-%d", seed), oracle.RandomGraph(seed, oracle.GenOptions{}), model, 16})
	}
	for _, n := range []int{16, 32, 64, 128, 256} {
		for _, procs := range []int{4, 8, 16, 32, 64, 128} {
			sweep = append(sweep, programInstance(t, cal, "strassen", n, procs))
		}
	}
	// bench/gen.go's svc_cold specs, as in the orbit-reduction gate.
	const gridSizes, gridProcs, stride = 96, 32, 1021
	for i := 0; i < 300; i++ {
		cell := i * stride % (gridSizes * gridProcs)
		cold = append(cold, programInstance(t, cal, "cmm", 32+cell/gridProcs, 4+cell%gridProcs))
	}
	populations := []struct {
		name string
		set  []instance
	}{{"oracle200", randomGen}, {"planted200", planted}, {"determinism50", determinism}, {"strassen-sweep", sweep}, {"svc-cold300", cold}}
	for _, pop := range populations {
		t.Run(pop.name, func(t *testing.T) {
			worst, worstAt := 0.0, ""
			for _, in := range pop.set {
				mid, err := alloc.Solve(in.g, in.model, in.procs, alloc.Options{})
				if err != nil {
					t.Fatal(err)
				}
				others, err := alloc.SolveFromStarts(in.g, in.model, in.procs, goldenStarts)
				if err != nil {
					t.Fatal(err)
				}
				for s, r := range others {
					gap := math.Abs(r.Phi/mid.Phi - 1)
					if gap > startTol {
						t.Errorf("%s: start %d Φ %.12g, midpoint %.12g (relative gap %.3g)", in.name, s+1, r.Phi, mid.Phi, gap)
					}
					if gap > worst {
						worst, worstAt = gap, fmt.Sprintf("%s start %d", in.name, s+1)
					}
				}
			}
			t.Logf("%d instances: worst relative Φ gap to the midpoint start %.3g (%s)", len(pop.set), worst, worstAt)
		})
	}
}

// stageLog records the stage index of every SolverStage event.
type stageLog []int

func (l *stageLog) Observe(ev obs.Event) {
	if s, ok := ev.(obs.SolverStage); ok {
		*l = append(*l, s.Stage)
	}
}

// TestSolveCancelsAtTheNextStage cancels the Strassen-128 / p = 64 solve
// while it runs, from an OnStage hook: SolveCtx must return
// context.Canceled, with or without the heuristic fallback, and the
// solve must stop at the next stage boundary — no SolverStage event after
// the stage that cancelled.
func TestSolveCancelsAtTheNextStage(t *testing.T) {
	in := programInstance(t, trainedModel(t), "strassen", 128, 64)
	const cancelAt = 2
	for _, fallback := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		var log stageLog
		opts := alloc.Options{Observer: &log, FallbackHeuristic: fallback}
		opts.Anneal.OnStage = func(stage int, temp float64, r convex.Result) error {
			if stage == cancelAt {
				cancel()
			}
			return nil
		}
		_, err := alloc.SolveCtx(ctx, in.g, in.model, in.procs, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fallback %v: err = %v, want context.Canceled", fallback, err)
		}
		if len(log) != cancelAt+1 || log[cancelAt] != cancelAt {
			t.Fatalf("fallback %v: stages %v, want 0…%d", fallback, log, cancelAt)
		}
	}
}
