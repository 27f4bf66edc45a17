package experiments

import (
	"context"
	"fmt"
	"strings"

	"paradigm/internal/alloc"
	"paradigm/internal/bounds"
	"paradigm/internal/mdg"
	"paradigm/internal/par"
	"paradigm/internal/programs"
	"paradigm/internal/sched"
	"paradigm/internal/sim"
	"paradigm/internal/tables"
)

// --- E7: Figure 7 (allocation and schedule for CMM on 4 processors) -------

// Fig7Result is the allocation and Gantt chart for Complex Matrix
// Multiply on a 4-processor system.
type Fig7Result struct {
	Alloc    alloc.Result
	Rounded  []int
	Gantt    string
	SchedTab string
	Makespan float64
}

// Fig7 reproduces the Figure 7 diagram.
func Fig7(env *Env) (*Fig7Result, error) {
	p, err := programs.ComplexMatMul(64, env.Cal)
	if err != nil {
		return nil, err
	}
	model := env.Cal.Model()
	ar, err := alloc.Solve(p.G, model, 4, alloc.Options{})
	if err != nil {
		return nil, err
	}
	s, err := sched.Run(p.G, model, ar.P, 4, sched.Options{PB: 4})
	if err != nil {
		return nil, err
	}
	if err := s.Validate(p.G, model); err != nil {
		return nil, err
	}
	return &Fig7Result{
		Alloc:    ar,
		Rounded:  s.Alloc,
		Gantt:    s.Gantt(p.G, 72),
		SchedTab: s.Table(p.G),
		Makespan: s.Makespan,
	}, nil
}

// String renders Figure 7.
func (r *Fig7Result) String() string {
	return "Figure 7: allocation and schedule for Complex Matrix Multiply, p = 4\n" +
		r.SchedTab + "\n" + r.Gantt
}

// --- E8: Figure 8 (speedup and efficiency, SPMD vs MPMD) ------------------

// Fig8Row is one (program, system size) comparison.
type Fig8Row struct {
	Program                  string
	Procs                    int
	SerialTime               float64
	SPMDTime, MPMDTime       float64
	SPMDSpeedup, MPMDSpeedup float64
	SPMDEff, MPMDEff         float64
}

// Fig8Result carries all rows.
type Fig8Result struct{ Rows []Fig8Row }

// Fig8 simulates both test programs under both disciplines across the
// paper's system sizes, with serial time from a one-processor run. The
// per-program serial baselines and every (program, procs) cell fan out on
// the worker pool.
func Fig8(env *Env) (*Fig8Result, error) {
	progs, err := testPrograms(env)
	if err != nil {
		return nil, err
	}
	names := ProgramNames()
	serials, err := par.Map(context.Background(), len(names), func(_ context.Context, i int) (float64, error) {
		run, err := RunPipeline(env, progs[names[i]], 1, SPMD)
		if err != nil {
			return 0, fmt.Errorf("%s serial: %w", names[i], err)
		}
		return run.Actual, nil
	})
	if err != nil {
		return nil, err
	}
	serialByName := make(map[string]float64, len(names))
	for i, name := range names {
		serialByName[name] = serials[i]
	}
	rows, err := mapCells(progs, func(c cell) (Fig8Row, error) {
		spmd, err := RunPipeline(env, c.Prog, c.Procs, SPMD)
		if err != nil {
			return Fig8Row{}, fmt.Errorf("%s SPMD p=%d: %w", c.Name, c.Procs, err)
		}
		mpmd, err := RunPipeline(env, c.Prog, c.Procs, MPMD)
		if err != nil {
			return Fig8Row{}, fmt.Errorf("%s MPMD p=%d: %w", c.Name, c.Procs, err)
		}
		// Every run must stay numerically correct.
		if worst, err := sim.Verify(c.Prog, mpmd.Sim); err != nil || worst > 1e-6 {
			return Fig8Row{}, fmt.Errorf("%s MPMD p=%d numerics: worst %v err %v", c.Name, c.Procs, worst, err)
		}
		row := Fig8Row{
			Program:    c.Name,
			Procs:      c.Procs,
			SerialTime: serialByName[c.Name],
			SPMDTime:   spmd.Actual,
			MPMDTime:   mpmd.Actual,
		}
		row.SPMDSpeedup = row.SerialTime / row.SPMDTime
		row.MPMDSpeedup = row.SerialTime / row.MPMDTime
		row.SPMDEff = row.SPMDSpeedup / float64(c.Procs)
		row.MPMDEff = row.MPMDSpeedup / float64(c.Procs)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Rows: rows}, nil
}

// String renders the Figure 8 rows.
func (r *Fig8Result) String() string {
	t := tables.New("Figure 8: speedup and efficiency, SPMD versus MPMD (simulated CM-5)",
		"program", "p", "serial (s)", "SPMD (s)", "MPMD (s)",
		"SPMD speedup", "MPMD speedup", "SPMD eff", "MPMD eff")
	for _, row := range r.Rows {
		t.Row(row.Program, row.Procs,
			fmt.Sprintf("%.4f", row.SerialTime),
			fmt.Sprintf("%.4f", row.SPMDTime),
			fmt.Sprintf("%.4f", row.MPMDTime),
			fmt.Sprintf("%.2f", row.SPMDSpeedup),
			fmt.Sprintf("%.2f", row.MPMDSpeedup),
			fmt.Sprintf("%.3f", row.SPMDEff),
			fmt.Sprintf("%.3f", row.MPMDEff))
	}
	return t.String()
}

// --- E9: Figure 9 (predicted versus actual, normalized) -------------------

// Fig9Row compares the model-predicted finish time with the simulated one.
type Fig9Row struct {
	Program    string
	Procs      int
	Predicted  float64
	Actual     float64
	Normalized float64 // Predicted / Actual (paper plots both normalized to actual)
}

// Fig9Result carries all rows.
type Fig9Result struct{ Rows []Fig9Row }

// Fig9 compares predictions with simulated actuals for the MPMD runs,
// one worker-pool task per (program, procs) cell.
func Fig9(env *Env) (*Fig9Result, error) {
	progs, err := testPrograms(env)
	if err != nil {
		return nil, err
	}
	rows, err := mapCells(progs, func(c cell) (Fig9Row, error) {
		run, err := RunPipeline(env, c.Prog, c.Procs, MPMD)
		if err != nil {
			return Fig9Row{}, err
		}
		return Fig9Row{
			Program:    c.Name,
			Procs:      c.Procs,
			Predicted:  run.Predicted,
			Actual:     run.Actual,
			Normalized: run.Predicted / run.Actual,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Rows: rows}, nil
}

// String renders the Figure 9 rows.
func (r *Fig9Result) String() string {
	t := tables.New("Figure 9: predicted versus actual execution times (normalized to actual)",
		"program", "p", "predicted (s)", "actual (s)", "predicted/actual")
	for _, row := range r.Rows {
		t.Row(row.Program, row.Procs,
			fmt.Sprintf("%.4f", row.Predicted),
			fmt.Sprintf("%.4f", row.Actual),
			fmt.Sprintf("%.3f", row.Normalized))
	}
	return t.String()
}

// --- E10: Table 3 (Φ versus T_psa) -----------------------------------------

// Table3Row compares the convex optimum with the PSA schedule time.
type Table3Row struct {
	Program       string
	Procs         int
	Phi           float64
	Tpsa          float64
	PercentChange float64
}

// Table3Result carries all rows.
type Table3Result struct{ Rows []Table3Row }

// Table3 reproduces the paper's Table 3, one worker-pool task per
// (program, procs) cell.
func Table3(env *Env) (*Table3Result, error) {
	progs, err := testPrograms(env)
	if err != nil {
		return nil, err
	}
	model := env.Cal.Model()
	rows, err := mapCells(progs, func(c cell) (Table3Row, error) {
		ar, err := alloc.Solve(c.Prog.G, model, c.Procs, alloc.Options{})
		if err != nil {
			return Table3Row{}, err
		}
		s, err := sched.Run(c.Prog.G, model, ar.P, c.Procs, sched.Options{})
		if err != nil {
			return Table3Row{}, err
		}
		return Table3Row{
			Program:       c.Name,
			Procs:         c.Procs,
			Phi:           ar.Phi,
			Tpsa:          s.Makespan,
			PercentChange: 100 * (s.Makespan - ar.Phi) / ar.Phi,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table3Result{Rows: rows}, nil
}

// String renders Table 3 (paper deviations: -2.6% to +15.6%).
func (r *Table3Result) String() string {
	t := tables.New("Table 3: deviation of T_psa from Phi (paper: -2.6% .. +15.6%)",
		"Program Name", "System Size", "Phi (S)", "T_psa (S)", "Percent Change")
	for _, row := range r.Rows {
		t.Row(row.Program, row.Procs,
			fmt.Sprintf("%.4f", row.Phi),
			fmt.Sprintf("%.4f", row.Tpsa),
			fmt.Sprintf("%+.1f", row.PercentChange))
	}
	return t.String()
}

// --- Ablations --------------------------------------------------------------

// AblationRoundingRow measures the cost of the rounding and bounding steps
// (the practical side of Theorem 2).
type AblationRoundingRow struct {
	Program            string
	Procs              int
	Phi                float64
	TpsaRounded        float64
	TpsaUnrounded      float64
	Theorem3Bound      float64
	RoundedWithinBound bool
}

// AblationRoundingResult carries all rows.
type AblationRoundingResult struct{ Rows []AblationRoundingRow }

// AblationRounding compares power-of-two rounding against floor-rounding
// (SkipRounding) and checks the Theorem 3 bound.
func AblationRounding(env *Env) (*AblationRoundingResult, error) {
	progs, err := testPrograms(env)
	if err != nil {
		return nil, err
	}
	model := env.Cal.Model()
	rows, err := mapCells(progs, func(c cell) (AblationRoundingRow, error) {
		ar, err := alloc.Solve(c.Prog.G, model, c.Procs, alloc.Options{})
		if err != nil {
			return AblationRoundingRow{}, err
		}
		rounded, err := sched.Run(c.Prog.G, model, ar.P, c.Procs, sched.Options{})
		if err != nil {
			return AblationRoundingRow{}, err
		}
		raw, err := sched.Run(c.Prog.G, model, ar.P, c.Procs, sched.Options{SkipRounding: true, PB: rounded.PB})
		if err != nil {
			return AblationRoundingRow{}, err
		}
		factor, err := bounds.Theorem3Factor(c.Procs, rounded.PB)
		if err != nil {
			return AblationRoundingRow{}, err
		}
		return AblationRoundingRow{
			Program:            c.Name,
			Procs:              c.Procs,
			Phi:                ar.Phi,
			TpsaRounded:        rounded.Makespan,
			TpsaUnrounded:      raw.Makespan,
			Theorem3Bound:      factor * ar.Phi,
			RoundedWithinBound: rounded.Makespan <= factor*ar.Phi+1e-9,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationRoundingResult{Rows: rows}, nil
}

// String renders ablation A1.
func (r *AblationRoundingResult) String() string {
	t := tables.New("Ablation A1: power-of-two rounding cost and the Theorem 3 bound",
		"program", "p", "Phi (s)", "T_psa pow2 (s)", "T_psa floor (s)", "Thm3 bound (s)", "within bound")
	for _, row := range r.Rows {
		t.Row(row.Program, row.Procs,
			fmt.Sprintf("%.4f", row.Phi),
			fmt.Sprintf("%.4f", row.TpsaRounded),
			fmt.Sprintf("%.4f", row.TpsaUnrounded),
			fmt.Sprintf("%.4f", row.Theorem3Bound),
			row.RoundedWithinBound)
	}
	return t.String()
}

// AblationPBRow sweeps the processor bound.
type AblationPBRow struct {
	PB          int
	BoundFactor float64
	Tpsa        float64
	IsCorollary bool
}

// AblationPBResult carries one program's sweep.
type AblationPBResult struct {
	Program string
	Procs   int
	Rows    []AblationPBRow
}

// AblationPBSweep sweeps PB over powers of two for Strassen at p = 32 and
// marks Corollary 1's choice.
func AblationPBSweep(env *Env) (*AblationPBResult, error) {
	p, err := programs.Strassen(128, env.Cal)
	if err != nil {
		return nil, err
	}
	model := env.Cal.Model()
	const procs = 32
	ar, err := alloc.Solve(p.G, model, procs, alloc.Options{})
	if err != nil {
		return nil, err
	}
	corollary, _, err := bounds.OptimalPB(procs)
	if err != nil {
		return nil, err
	}
	out := &AblationPBResult{Program: "Strassen's Matrix Multiply (128x128)", Procs: procs}
	var pbs []int
	for pb := 1; pb <= procs; pb *= 2 {
		pbs = append(pbs, pb)
	}
	out.Rows, err = par.Map(context.Background(), len(pbs), func(_ context.Context, i int) (AblationPBRow, error) {
		pb := pbs[i]
		s, err := sched.Run(p.G, model, ar.P, procs, sched.Options{PB: pb})
		if err != nil {
			return AblationPBRow{}, err
		}
		factor, err := bounds.Theorem3Factor(procs, pb)
		if err != nil {
			return AblationPBRow{}, err
		}
		return AblationPBRow{
			PB:          pb,
			BoundFactor: factor,
			Tpsa:        s.Makespan,
			IsCorollary: pb == corollary,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// String renders ablation A2.
func (r *AblationPBResult) String() string {
	t := tables.New(fmt.Sprintf("Ablation A2: PB sweep, %s, p = %d", r.Program, r.Procs),
		"PB", "Theorem 3 factor", "T_psa (s)", "Corollary 1 choice")
	for _, row := range r.Rows {
		mark := ""
		if row.IsCorollary {
			mark = "<= chosen"
		}
		t.Row(row.PB, fmt.Sprintf("%.1f", row.BoundFactor), fmt.Sprintf("%.4f", row.Tpsa), mark)
	}
	return t.String()
}

// AblationTransferRow compares transfer-aware and transfer-blind
// allocation under the true model.
type AblationTransferRow struct {
	Program    string
	Procs      int
	PhiAware   float64
	PhiBlind   float64
	PenaltyPct float64
}

// AblationTransferResult carries all rows.
type AblationTransferResult struct{ Rows []AblationTransferRow }

// AblationNoTransferCosts quantifies what ignoring data transfer costs in
// the allocation (as prior work did) costs under the full model.
func AblationNoTransferCosts(env *Env) (*AblationTransferResult, error) {
	progs, err := testPrograms(env)
	if err != nil {
		return nil, err
	}
	model := env.Cal.Model()
	rows, err := mapCells(progs, func(c cell) (AblationTransferRow, error) {
		aware, err := alloc.Solve(c.Prog.G, model, c.Procs, alloc.Options{})
		if err != nil {
			return AblationTransferRow{}, err
		}
		blind, err := alloc.Solve(c.Prog.G, model, c.Procs, alloc.Options{IgnoreTransfers: true})
		if err != nil {
			return AblationTransferRow{}, err
		}
		return AblationTransferRow{
			Program:    c.Name,
			Procs:      c.Procs,
			PhiAware:   aware.Phi,
			PhiBlind:   blind.Phi,
			PenaltyPct: 100 * (blind.Phi - aware.Phi) / aware.Phi,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationTransferResult{Rows: rows}, nil
}

// String renders ablation A3.
func (r *AblationTransferResult) String() string {
	t := tables.New("Ablation A3: allocation ignoring transfer costs (Prasanna-Agarwal style), true-model Phi",
		"program", "p", "Phi aware (s)", "Phi blind (s)", "penalty (%)")
	for _, row := range r.Rows {
		t.Row(row.Program, row.Procs,
			fmt.Sprintf("%.4f", row.PhiAware),
			fmt.Sprintf("%.4f", row.PhiBlind),
			fmt.Sprintf("%+.1f", row.PenaltyPct))
	}
	return t.String()
}

// AblationSchedulerResult compares the PSA priority rule against FIFO
// and critical-path (HLF) list scheduling on two workloads.
type AblationSchedulerResult struct {
	Procs int
	Rows  []AblationSchedulerRow
}

// AblationSchedulerRow is one workload's three-policy comparison.
type AblationSchedulerRow struct {
	Workload                   string
	PSATime, FIFOTime, HLFTime float64
}

// AblationScheduler runs A4: the PSA's lowest-EST priority against FIFO
// and HLF on the synthetic pipeline and a random layered MDG.
func AblationScheduler(env *Env) (*AblationSchedulerResult, error) {
	model := env.Cal.Model()
	const procs = 16
	out := &AblationSchedulerResult{Procs: procs}

	pipe, err := programs.SyntheticPipeline(64, 6, 3, env.Cal)
	if err != nil {
		return nil, err
	}
	layered, err := mdg.RandomLayered(99, 5, 6, 3, 32768)
	if err != nil {
		return nil, err
	}
	workloads := []struct {
		name string
		g    *mdg.Graph
	}{
		{pipe.Name, pipe.G},
		{"layered-5x6", layered},
	}
	out.Rows, err = par.Map(context.Background(), len(workloads), func(_ context.Context, i int) (AblationSchedulerRow, error) {
		w := workloads[i]
		ar, err := alloc.Solve(w.g, model, procs, alloc.Options{})
		if err != nil {
			return AblationSchedulerRow{}, err
		}
		row := AblationSchedulerRow{Workload: w.name}
		for _, pol := range []struct {
			p   sched.Policy
			dst *float64
		}{
			{sched.LowestEST, &row.PSATime},
			{sched.FIFO, &row.FIFOTime},
			{sched.HLF, &row.HLFTime},
		} {
			s, err := sched.Run(w.g, model, ar.P, procs, sched.Options{Policy: pol.p})
			if err != nil {
				return AblationSchedulerRow{}, err
			}
			if err := s.Validate(w.g, model); err != nil {
				return AblationSchedulerRow{}, err
			}
			*pol.dst = s.Makespan
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// String renders ablation A4.
func (r *AblationSchedulerResult) String() string {
	t := tables.New(fmt.Sprintf("Ablation A4: ready-queue policies, p = %d", r.Procs),
		"workload", "PSA lowest-EST (s)", "FIFO (s)", "HLF (s)")
	for _, row := range r.Rows {
		t.Row(row.Workload,
			fmt.Sprintf("%.4f", row.PSATime),
			fmt.Sprintf("%.4f", row.FIFOTime),
			fmt.Sprintf("%.4f", row.HLFTime))
	}
	return t.String()
}

// All runs every experiment and concatenates the printed outputs in paper
// order — the cmd/experiments payload. The artifacts are independent
// given the shared calibration, so they fan out on the worker pool (each
// one further fans its own cells); the rendered strings are joined by
// step index, so output order never depends on completion order.
func All(env *Env) (string, error) {
	steps := []func() (fmt.Stringer, error){
		func() (fmt.Stringer, error) { return Example3Node(env) },
		func() (fmt.Stringer, error) { return Table1(env) },
		func() (fmt.Stringer, error) { return Fig3(env) },
		func() (fmt.Stringer, error) { return Table2(env) },
		func() (fmt.Stringer, error) { return Fig5(env) },
		func() (fmt.Stringer, error) { return Fig6(env) },
		func() (fmt.Stringer, error) { return Fig7(env) },
		func() (fmt.Stringer, error) { return Fig8(env) },
		func() (fmt.Stringer, error) { return Fig9(env) },
		func() (fmt.Stringer, error) { return Table3(env) },
		func() (fmt.Stringer, error) { return AblationRounding(env) },
		func() (fmt.Stringer, error) { return AblationPBSweep(env) },
		func() (fmt.Stringer, error) { return AblationNoTransferCosts(env) },
		func() (fmt.Stringer, error) { return AblationScheduler(env) },
		func() (fmt.Stringer, error) { return AblationHeuristic(env) },
		func() (fmt.Stringer, error) { return AblationStaticEstimate(env) },
		func() (fmt.Stringer, error) { return Portability(env) },
		func() (fmt.Stringer, error) { return AblationJitter(env) },
		func() (fmt.Stringer, error) { return GridDistribution(env) },
		func() (fmt.Stringer, error) { return Scalability(env) },
		func() (fmt.Stringer, error) { return StrassenRecursion(env) },
	}
	texts, err := par.Map(context.Background(), len(steps), func(_ context.Context, i int) (string, error) {
		r, err := steps[i]()
		if err != nil {
			return "", err
		}
		return r.String(), nil
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, s := range texts {
		b.WriteString(s)
		b.WriteString("\n")
	}
	return b.String(), nil
}
