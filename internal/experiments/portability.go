package experiments

import (
	"context"
	"fmt"

	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/par"
	"paradigm/internal/prog"
	"paradigm/internal/programs"
	"paradigm/internal/tables"
	"paradigm/internal/trainsets"
)

// PortabilityRow is one (program, procs) pipeline outcome on the Paragon
// profile.
type PortabilityRow struct {
	Program           string
	Procs             int
	Phi               float64
	Predicted, Actual float64
	DevPct            float64 // T_psa vs Phi
	RatioPredActual   float64
}

// PortabilityResult carries the Paragon calibration summary and rows
// (experiment E11).
type PortabilityResult struct {
	FittedTnNs   float64 // must be > 0 on the Paragon, unlike the CM-5
	TruthTnNs    float64
	FittedTssUs  float64
	MulAlphaPct  float64
	MulTauMs     float64
	Rows         []PortabilityRow
	WorstNumDiff float64
}

// Portability runs E11: calibrate an Intel-Paragon-like profile from
// scratch (including the nonzero t_n the CM-5 lacks) and push both test
// programs through the full pipeline on it. The methodology — not the
// CM-5 constants — is what must survive the machine change.
func Portability(env *Env) (*PortabilityResult, error) {
	mp := machine.Paragon(64)
	cal, err := trainsets.Calibrate(mp)
	if err != nil {
		return nil, err
	}
	out := &PortabilityResult{
		FittedTnNs:  cal.Transfer.Params.Tn * 1e9,
		TruthTnNs:   mp.NetPerByte * 1e9,
		FittedTssUs: cal.Transfer.Params.Tss * 1e6,
	}
	mulFit, err := cal.LoopFit("Matrix Multiply (64x64)",
		kernels.Kernel{Op: kernels.OpMul, M: 64, N: 64, K: 64})
	if err != nil {
		return nil, err
	}
	out.MulAlphaPct = mulFit.Params.Alpha * 100
	out.MulTauMs = mulFit.Params.Tau * 1e3

	cmm, err := programs.ComplexMatMul(64, cal)
	if err != nil {
		return nil, err
	}
	str, err := programs.Strassen(128, cal)
	if err != nil {
		return nil, err
	}
	var tasks []struct {
		name  string
		prog  *prog.Program
		procs int
	}
	for _, item := range []struct {
		name string
		prog *prog.Program
	}{
		{"Complex Matrix Multiply (64x64)", cmm},
		{"Strassen's Matrix Multiply (128x128)", str},
	} {
		for _, procs := range []int{16, 64} {
			tasks = append(tasks, struct {
				name  string
				prog  *prog.Program
				procs int
			}{item.name, item.prog, procs})
		}
	}
	type rowDiff struct {
		row  PortabilityRow
		diff float64
	}
	rds, err := par.Map(context.Background(), len(tasks), func(ctx context.Context, i int) (rowDiff, error) {
		item := tasks[i]
		run, worst, err := runMPMD(ctx, mp, cal, item.prog, item.procs)
		if err != nil {
			return rowDiff{}, fmt.Errorf("paragon %s p=%d: %w", item.name, item.procs, err)
		}
		return rowDiff{
			row: PortabilityRow{
				Program:         item.name,
				Procs:           item.procs,
				Phi:             run.Alloc.Phi,
				Predicted:       run.Predicted,
				Actual:          run.Actual,
				DevPct:          100 * (run.Predicted - run.Alloc.Phi) / run.Alloc.Phi,
				RatioPredActual: run.Predicted / run.Actual,
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

// String renders E11.
func (r *PortabilityResult) String() string {
	t := tables.New(
		fmt.Sprintf("E11 portability: Intel-Paragon-like profile (fitted t_n = %.2f nS, truth %.2f nS; t_ss = %.1f uS; mul alpha = %.1f%%, tau = %.2f ms)",
			r.FittedTnNs, r.TruthTnNs, r.FittedTssUs, r.MulAlphaPct, r.MulTauMs),
		"program", "p", "Phi (s)", "T_psa (s)", "actual (s)", "dev (%)", "pred/actual")
	for _, row := range r.Rows {
		t.Row(row.Program, row.Procs,
			fmt.Sprintf("%.5f", row.Phi),
			fmt.Sprintf("%.5f", row.Predicted),
			fmt.Sprintf("%.5f", row.Actual),
			fmt.Sprintf("%+.1f", row.DevPct),
			fmt.Sprintf("%.3f", row.RatioPredActual))
	}
	return t.String()
}
