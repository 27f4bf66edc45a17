// Package experiments regenerates every table and figure of the paper's
// evaluation (plus the DESIGN.md ablations) on the simulated CM-5. Each
// driver returns a typed result whose String() prints the same rows or
// series the paper reports. Every simulated run goes through the root
// pipeline (paradigm.RunContext, paradigm.RunSPMDContext) and every
// planning-only one through paradigm.AllocateAndScheduleContext; only
// the ablations that study a layer call it directly. cmd/experiments
// prints them all, testdata/report.golden pins that output byte for
// byte, this package's benchmarks time each artifact, and EXPERIMENTS.md
// records paper-vs-measured.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"paradigm"
	"paradigm/internal/costmodel"
	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/prog"
	"paradigm/internal/programs"
	"paradigm/internal/tables"
	"paradigm/internal/trainsets"
)

// Env is the shared experimental setup: the simulated 64-node CM-5 and
// its training-sets calibration.
type Env struct {
	Machine machine.Params
	Cal     *trainsets.Calibration
}

// NewEnv calibrates a fresh 64-processor CM-5 profile.
func NewEnv() (*Env, error) {
	mp := machine.CM5(64)
	cal, err := trainsets.Calibrate(mp)
	if err != nil {
		return nil, err
	}
	return &Env{Machine: mp, Cal: cal}, nil
}

// --- E1: the Section 1.2 / Figures 1-2 motivating example -----------------

// Example3Result compares the naive all-processors schedule with the
// convex-allocated mixed schedule on the 3-node example MDG.
type Example3Result struct {
	NaiveTime float64 // paper: 15.6 s
	MixedTime float64 // paper: 14.3 s
	Phi       float64
	Alloc     []float64
	Gantt     string
}

// Example3Node runs E1 on a 4-processor system.
func Example3Node(env *Env) (*Example3Result, error) {
	g := programs.FigureOneMDG()
	m := costmodel.Model{} // the example has no data transfer costs
	pb4 := paradigm.WithScheduleOptions(paradigm.ScheduleOptions{PB: 4})
	// The naive schedule runs every node on all four processors.
	all := make([]float64, g.NumNodes())
	for i := range all {
		all[i] = 4
	}
	naive, err := paradigm.BuildScheduleContext(context.Background(), g, m, all, 4, pb4)
	if err != nil {
		return nil, err
	}
	ar, s, err := paradigm.AllocateAndScheduleContext(context.Background(), g, m, 4, pb4)
	if err != nil {
		return nil, err
	}
	return &Example3Result{
		NaiveTime: naive.Makespan,
		MixedTime: s.Makespan,
		Phi:       ar.Phi,
		Alloc:     ar.P,
		Gantt:     s.Gantt(g, 64),
	}, nil
}

// String renders E1.
func (r *Example3Result) String() string {
	t := tables.New("Figures 1-2: 3-node example, p = 4 (paper: naive 15.6 s, mixed 14.3 s)",
		"scheme", "finish time (s)")
	t.Row("pure data parallel (naive)", r.NaiveTime)
	t.Row("mixed task+data parallel", r.MixedTime)
	return t.String() + "\n" + r.Gantt
}

// --- E2/E3: Table 1 and Figure 3 (processing cost calibration) ------------

// Table1Result holds the fitted Amdahl rows.
type Table1Result struct {
	Fits []trainsets.LoopFit
}

// Table1 calibrates the paper's two loops (64×64 Add and Multiply).
func Table1(env *Env) (*Table1Result, error) {
	add := kernels.Kernel{Op: kernels.OpAdd, M: 64, N: 64}
	mul := kernels.Kernel{Op: kernels.OpMul, M: 64, N: 64, K: 64}
	fa, err := env.Cal.LoopFit("Matrix Addition (64x64)", add)
	if err != nil {
		return nil, err
	}
	fm, err := env.Cal.LoopFit("Matrix Multiply (64x64)", mul)
	if err != nil {
		return nil, err
	}
	return &Table1Result{Fits: []trainsets.LoopFit{fa, fm}}, nil
}

// String renders Table 1 (paper: Add α=6.7%, τ=3.73 ms; Mul α=12.1%,
// τ=298.47 ms).
func (r *Table1Result) String() string {
	t := tables.New("Table 1: processing cost parameters (paper: Add 6.7%/3.73ms, Mul 12.1%/298.47ms)",
		"Node Name", "alpha (%)", "tau (ms)", "R^2")
	for _, f := range r.Fits {
		t.Row(f.Name, fmt.Sprintf("%.1f", f.Params.Alpha*100),
			fmt.Sprintf("%.2f", f.Params.Tau*1e3), fmt.Sprintf("%.4f", f.R2))
	}
	return t.String()
}

// Fig3Result is the actual-vs-predicted processing cost series.
type Fig3Result struct{ Fits []trainsets.LoopFit }

// Fig3 reuses the Table 1 fits and exposes their sample series.
func Fig3(env *Env) (*Fig3Result, error) {
	t1, err := Table1(env)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Fits: t1.Fits}, nil
}

// String renders the Figure 3 series.
func (r *Fig3Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 3: actual versus predicted processing costs\n")
	for _, f := range r.Fits {
		t := tables.New(f.Name, "procs", "measured (ms)", "predicted (ms)", "error (%)")
		for _, s := range f.Samples {
			t.Row(s.Procs, fmt.Sprintf("%.3f", s.Measured*1e3),
				fmt.Sprintf("%.3f", s.Predicted*1e3),
				fmt.Sprintf("%+.1f", 100*(s.Predicted-s.Measured)/s.Measured))
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}

// --- E4/E5: Table 2 and Figure 5 (transfer cost calibration) --------------

// Table2Result wraps the fitted transfer parameters.
type Table2Result struct{ Fit trainsets.TransferFit }

// Table2 returns the transfer calibration performed by NewEnv.
func Table2(env *Env) (*Table2Result, error) {
	return &Table2Result{Fit: env.Cal.Transfer}, nil
}

// String renders Table 2 (paper: 777.56 µs, 486.98 ns, 465.58 µs,
// 426.25 ns, 0).
func (r *Table2Result) String() string {
	p := r.Fit.Params
	t := tables.New("Table 2: data transfer cost parameters (paper: 777.56uS 486.98nS 465.58uS 426.25nS 0nS)",
		"t_ss (uS)", "t_ps (nS)", "t_sr (uS)", "t_pr (nS)", "t_n (nS)")
	t.Row(fmt.Sprintf("%.2f", p.Tss*1e6), fmt.Sprintf("%.2f", p.Tps*1e9),
		fmt.Sprintf("%.2f", p.Tsr*1e6), fmt.Sprintf("%.2f", p.Tpr*1e9),
		fmt.Sprintf("%.2f", p.Tn*1e9))
	return t.String() +
		fmt.Sprintf("send fit R^2 = %.4f, receive fit R^2 = %.4f\n", r.Fit.SendR2, r.Fit.RecvR2)
}

// Fig5Result is the actual-vs-predicted transfer cost series.
type Fig5Result struct{ Fit trainsets.TransferFit }

// Fig5 exposes the calibration samples.
func Fig5(env *Env) (*Fig5Result, error) {
	return &Fig5Result{Fit: env.Cal.Transfer}, nil
}

// String renders the Figure 5 series (a subset: equal-group sweeps).
func (r *Fig5Result) String() string {
	t := tables.New("Figure 5: actual versus predicted transfer costs",
		"kind", "bytes", "pi", "pj", "measured send (us)", "predicted send (us)", "measured recv (us)", "predicted recv (us)")
	for _, s := range r.Fit.Samples {
		t.Row(s.Kind, s.Bytes, s.Pi, s.Pj,
			fmt.Sprintf("%.1f", s.MeasuredSend*1e6), fmt.Sprintf("%.1f", s.PredictedSend*1e6),
			fmt.Sprintf("%.1f", s.MeasuredRecv*1e6), fmt.Sprintf("%.1f", s.PredictedRecv*1e6))
	}
	return t.String()
}

// --- E6: Figure 6 (the test-program MDGs) ----------------------------------

// Fig6Result carries both program graphs in DOT form.
type Fig6Result struct {
	CMMNodes, StrassenNodes int
	CMMDOT, StrassenDOT     string
}

// Fig6 builds both test programs and renders their MDGs.
func Fig6(env *Env) (*Fig6Result, error) {
	cmm, err := programs.ComplexMatMul(64, env.Cal)
	if err != nil {
		return nil, err
	}
	str, err := programs.Strassen(128, env.Cal)
	if err != nil {
		return nil, err
	}
	return &Fig6Result{
		CMMNodes:      cmm.G.NumNodes(),
		StrassenNodes: str.G.NumNodes(),
		CMMDOT:        cmm.G.DOT("complex-matmul"),
		StrassenDOT:   str.G.DOT("strassen"),
	}, nil
}

// String summarizes Figure 6 (full DOT available in the fields).
func (r *Fig6Result) String() string {
	return fmt.Sprintf("Figure 6: MDGs — Complex Matrix Multiply: %d nodes; Strassen: %d nodes (DOT in result fields)\n",
		r.CMMNodes, r.StrassenNodes)
}

// --- shared pipeline helpers -----------------------------------------------

// runMPMD runs p through the paper's pipeline (paradigm.RunContext) on
// procs processors of m, priced by cal, and verifies the run.
func runMPMD(ctx context.Context, m machine.Params, cal *trainsets.Calibration, p *prog.Program, procs int) (*paradigm.Result, float64, error) {
	res, err := paradigm.RunContext(ctx, p, m, cal, procs)
	return verified(p, cal.Model(), res, err)
}

// runSPMD runs p as the pure data-parallel baseline
// (paradigm.RunSPMDContext) on procs processors of m, priced by cal, and
// verifies the run.
func runSPMD(ctx context.Context, m machine.Params, cal *trainsets.Calibration, p *prog.Program, procs int) (*paradigm.Result, float64, error) {
	res, err := paradigm.RunSPMDContext(ctx, p, m, cal.Model(), procs)
	return verified(p, cal.Model(), res, err)
}

// verified holds a run that did not fail to the two checks every number
// the report prints relies on: its schedule is valid under the model
// that priced it, and its arrays match the sequential reference within
// 1e-6. It returns the run and its worst deviation.
func verified(p *prog.Program, model costmodel.Model, res *paradigm.Result, err error) (*paradigm.Result, float64, error) {
	if err != nil {
		return nil, 0, err
	}
	if err := res.Sched.Validate(p.G, model); err != nil {
		return nil, 0, err
	}
	worst, err := paradigm.Verify(p, res.Sim)
	if err != nil {
		return nil, 0, err
	}
	if worst > 1e-6 {
		return nil, 0, fmt.Errorf("experiments: %s deviates from its sequential reference by %v", p.Name, worst)
	}
	return res, worst, nil
}

// testPrograms builds the paper's two evaluation programs at their paper
// sizes (Complex Matrix Multiply 64×64, Strassen 128×128).
func testPrograms(env *Env) (map[string]*prog.Program, error) {
	cmm, err := programs.ComplexMatMul(64, env.Cal)
	if err != nil {
		return nil, err
	}
	str, err := programs.Strassen(128, env.Cal)
	if err != nil {
		return nil, err
	}
	return map[string]*prog.Program{
		"Complex Matrix Multiply (64x64)":      cmm,
		"Strassen's Matrix Multiply (128x128)": str,
	}, nil
}

// ProgramNames returns the canonical ordering of the test programs.
func ProgramNames() []string {
	return []string{
		"Complex Matrix Multiply (64x64)",
		"Strassen's Matrix Multiply (128x128)",
	}
}

// SystemSizes returns the paper's system-size sweep.
func SystemSizes() []int { return []int{16, 32, 64} }
