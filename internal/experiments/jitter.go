package experiments

import (
	"context"
	"fmt"

	"paradigm/internal/par"
	"paradigm/internal/programs"
	"paradigm/internal/tables"
)

// JitterRow is one noise-level outcome.
type JitterRow struct {
	JitterPct       float64
	Actual          float64
	RatioPredActual float64
	NumDiff         float64
}

// JitterResult carries the ablation A7 sweep.
type JitterResult struct {
	Program   string
	Procs     int
	Predicted float64
	Rows      []JitterRow
}

// AblationJitter runs A7: the same MPMD program and schedule executed on
// machines with increasing execution-time noise. The schedule is static,
// so jitter cannot deadlock it or corrupt data — only stretch the actual
// makespan; this quantifies how gracefully prediction accuracy degrades
// on a noisy machine.
func AblationJitter(env *Env) (*JitterResult, error) {
	p, err := programs.ComplexMatMul(64, env.Cal)
	if err != nil {
		return nil, err
	}
	const procs = 32
	out := &JitterResult{Program: "Complex Matrix Multiply (64x64)", Procs: procs}
	fracs := []float64{0, 0.05, 0.15, 0.30}
	type rowPred struct {
		row       JitterRow
		predicted float64
	}
	rps, err := par.Map(context.Background(), len(fracs), func(ctx context.Context, i int) (rowPred, error) {
		frac := fracs[i]
		noisy := env.Machine
		noisy.JitterFrac = frac
		noisy.JitterSeed = 0xC0FFEE
		run, numDiff, err := runMPMD(ctx, noisy, env.Cal, p, procs)
		if err != nil {
			return rowPred{}, fmt.Errorf("jitter %.0f%%: %w", frac*100, err)
		}
		return rowPred{
			row: JitterRow{
				JitterPct:       frac * 100,
				Actual:          run.Actual,
				RatioPredActual: run.Predicted / run.Actual,
				NumDiff:         numDiff,
			},
			predicted: run.Predicted,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rp := range rps {
		if out.Predicted == 0 {
			out.Predicted = rp.predicted
		}
		out.Rows = append(out.Rows, rp.row)
	}
	return out, nil
}

// String renders ablation A7.
func (r *JitterResult) String() string {
	t := tables.New(
		fmt.Sprintf("Ablation A7: execution jitter robustness — %s, p = %d, predicted %.4f s",
			r.Program, r.Procs, r.Predicted),
		"jitter (%)", "actual (s)", "pred/actual", "numeric deviation")
	for _, row := range r.Rows {
		t.Row(fmt.Sprintf("%.0f", row.JitterPct),
			fmt.Sprintf("%.4f", row.Actual),
			fmt.Sprintf("%.3f", row.RatioPredActual),
			fmt.Sprintf("%.2g", row.NumDiff))
	}
	return t.String()
}
