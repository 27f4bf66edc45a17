package alloc_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/obs"
)

// goldenStarts builds the off-midpoint start points: the golden-ratio
// low-discrepancy rule, with a per-coordinate stagger so no two starts or
// coordinates coincide, kept 10 % away from the box faces.
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
// from different start points: each is certified within a duality gap of
// 1e-9 in log units of the optimum.
const startTol = 1e-9

// TestSolveIsStartIndependent is why the allocator solves from one start:
// after x = ln p the program is convex with a unique minimum (paper §2),
// so three golden-ratio interior starts, each solved to completion, land
// within startTol relative exact Φ of alloc.Solve's midpoint start, on the
// 780 instances of solverPopulations. Run with -v for the worst gap of
// each.
func TestSolveIsStartIndependent(t *testing.T) {
	for _, pop := range solverPopulations(t) {
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

// stageLog records the stage index of every SolverStage event and calls
// cancel when it sees stage cancelAt.
type stageLog struct {
	stages   []int
	cancelAt int
	cancel   context.CancelFunc
}

func (l *stageLog) Observe(ev obs.Event) {
	if s, ok := ev.(obs.SolverStage); ok {
		l.stages = append(l.stages, s.Stage)
		if s.Stage == l.cancelAt {
			l.cancel()
		}
	}
}

// TestSolveCancelsAtTheNextStage cancels the Strassen-128 / p = 64 solve
// while it runs, from the observer of its third interior-point iteration:
// SolveCtx must return context.Canceled, with or without the heuristic
// fallback, and the solve must stop before the next iteration — no
// SolverStage event after the one that cancelled.
func TestSolveCancelsAtTheNextStage(t *testing.T) {
	in := programInstance(t, trainedModel(t), "strassen", 128, 64)
	const cancelAt = 2
	for _, fallback := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		log := &stageLog{cancelAt: cancelAt, cancel: cancel}
		opts := alloc.Options{Observer: log, FallbackHeuristic: fallback}
		_, err := alloc.SolveCtx(ctx, in.g, in.model, in.procs, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fallback %v: err = %v, want context.Canceled", fallback, err)
		}
		if len(log.stages) != cancelAt+1 || log.stages[cancelAt] != cancelAt {
			t.Fatalf("fallback %v: stages %v, want 0…%d", fallback, log.stages, cancelAt)
		}
	}
}
