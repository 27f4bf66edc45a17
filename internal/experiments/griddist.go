package experiments

import (
	"context"
	"fmt"

	"paradigm/internal/kernels"
	"paradigm/internal/par"
	"paradigm/internal/programs"
	"paradigm/internal/tables"
)

// GridDistRow is one system-size comparison of the two layouts.
type GridDistRow struct {
	Procs                  int
	Actual1D, ActualGrid   float64
	Speedup1D, SpeedupGrid float64
}

// GridDistResult carries experiment E12 — the paper's general-distribution
// extension evaluated end to end.
type GridDistResult struct {
	Alpha1DPct, AlphaGridPct float64 // fitted multiply serial fractions
	Rows                     []GridDistRow
	WorstNumDiff             float64 // over every run, serial and 1D included
}

// GridDistribution runs E12: calibrate the grid-layout multiply (its
// Amdahl α should drop versus the 1D layout thanks to panel gathers), then
// run the Complex Matrix Multiply with grid-distributed multiply nodes
// against the original row-distributed version across system sizes.
func GridDistribution(env *Env) (*GridDistResult, error) {
	lin, err := env.Cal.LoopFit("Matrix Multiply (128x128)",
		kernels.Kernel{Op: kernels.OpMul, M: 128, N: 128, K: 128})
	if err != nil {
		return nil, err
	}
	grid, err := env.Cal.LoopFit("Matrix Multiply grid (128x128)",
		kernels.Kernel{Op: kernels.OpMul, M: 128, N: 128, K: 128, Grid: true})
	if err != nil {
		return nil, err
	}
	out := &GridDistResult{
		Alpha1DPct:   lin.Params.Alpha * 100,
		AlphaGridPct: grid.Params.Alpha * 100,
	}

	p1d, err := programs.ComplexMatMulLayout(128, env.Cal, false)
	if err != nil {
		return nil, err
	}
	pGrid, err := programs.ComplexMatMulLayout(128, env.Cal, true)
	if err != nil {
		return nil, err
	}
	serial, serialDiff, err := runSPMD(context.Background(), env.Machine, env.Cal, p1d, 1)
	if err != nil {
		return nil, fmt.Errorf("1D serial: %w", err)
	}
	out.WorstNumDiff = serialDiff
	sizes := SystemSizes()
	type rowDiff struct {
		row  GridDistRow
		diff float64
	}
	rds, err := par.Map(context.Background(), len(sizes), func(ctx context.Context, i int) (rowDiff, error) {
		procs := sizes[i]
		r1, diff1D, err := runMPMD(ctx, env.Machine, env.Cal, p1d, procs)
		if err != nil {
			return rowDiff{}, fmt.Errorf("1D p=%d: %w", procs, err)
		}
		rg, diffGrid, err := runMPMD(ctx, env.Machine, env.Cal, pGrid, procs)
		if err != nil {
			return rowDiff{}, fmt.Errorf("grid p=%d: %w", procs, err)
		}
		return rowDiff{
			row: GridDistRow{
				Procs:       procs,
				Actual1D:    r1.Actual,
				ActualGrid:  rg.Actual,
				Speedup1D:   serial.Actual / r1.Actual,
				SpeedupGrid: serial.Actual / rg.Actual,
			},
			diff: max(diff1D, diffGrid),
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

// String renders E12.
func (r *GridDistResult) String() string {
	t := tables.New(
		fmt.Sprintf("E12 general 2D distributions: grid multiply alpha %.1f%% vs 1D %.1f%% (CMM 128x128, MPMD)",
			r.AlphaGridPct, r.Alpha1DPct),
		"p", "1D actual (s)", "grid actual (s)", "1D speedup", "grid speedup")
	for _, row := range r.Rows {
		t.Row(row.Procs,
			fmt.Sprintf("%.4f", row.Actual1D),
			fmt.Sprintf("%.4f", row.ActualGrid),
			fmt.Sprintf("%.2f", row.Speedup1D),
			fmt.Sprintf("%.2f", row.SpeedupGrid))
	}
	return t.String()
}
