package experiments

import (
	"context"
	"fmt"

	"paradigm/internal/par"
	"paradigm/internal/programs"
	"paradigm/internal/tables"
)

// RecursionRow is one Strassen decomposition depth.
type RecursionRow struct {
	Depth      int
	Nodes      int
	Multiplies int
	Phi        float64
	Predicted  float64
	Actual     float64
}

// RecursionResult carries experiment E14: how deep to unfold Strassen's
// recursion at the MDG level before redistribution overhead eats the
// extra functional parallelism.
type RecursionResult struct {
	Procs        int
	Size         int
	Rows         []RecursionRow
	WorstNumDiff float64
}

// StrassenRecursion runs E14 at the paper's 128×128 size on 64
// processors for depths 0, 1 and 2.
func StrassenRecursion(env *Env) (*RecursionResult, error) {
	const (
		procs = 64
		size  = 128
	)
	out := &RecursionResult{Procs: procs, Size: size}
	const depths = 3
	type rowDiff struct {
		row  RecursionRow
		diff float64
	}
	rds, err := par.Map(context.Background(), depths, func(ctx context.Context, depth int) (rowDiff, error) {
		p, err := programs.StrassenRecursive(size, depth, env.Cal)
		if err != nil {
			return rowDiff{}, err
		}
		muls := 0
		for _, spec := range p.Specs {
			if spec.Kernel.Op.String() == "mul" {
				muls++
			}
		}
		run, worst, err := runMPMD(ctx, env.Machine, env.Cal, p, procs)
		if err != nil {
			return rowDiff{}, fmt.Errorf("depth %d: %w", depth, err)
		}
		return rowDiff{
			row: RecursionRow{
				Depth:      depth,
				Nodes:      p.G.NumNodes(),
				Multiplies: muls,
				Phi:        run.Alloc.Phi,
				Predicted:  run.Predicted,
				Actual:     run.Actual,
			},
			diff: worst,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rd := range rds {
		if rd.diff > out.WorstNumDiff {
			out.WorstNumDiff = rd.diff
		}
		out.Rows = append(out.Rows, rd.row)
	}
	return out, nil
}

// String renders E14.
func (r *RecursionResult) String() string {
	t := tables.New(
		fmt.Sprintf("E14 recursive Strassen depth sweep: %dx%d on p = %d (all runs verified)",
			r.Size, r.Size, r.Procs),
		"depth", "MDG nodes", "multiplies", "Phi (s)", "T_psa (s)", "actual (s)")
	for _, row := range r.Rows {
		t.Row(row.Depth, row.Nodes, row.Multiplies,
			fmt.Sprintf("%.4f", row.Phi),
			fmt.Sprintf("%.4f", row.Predicted),
			fmt.Sprintf("%.4f", row.Actual))
	}
	return t.String()
}
