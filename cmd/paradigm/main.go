// Command paradigm runs the allocation-and-scheduling pipeline on one of
// the built-in test programs or on an MDG loaded from JSON.
//
// Usage:
//
//	paradigm -program cmm      -procs 16            # full pipeline + simulation
//	paradigm -program strassen -size 128 -procs 64 -spmd  # the paper's Strassen, pure data-parallel baseline
//	paradigm -program example  -procs 4             # the Figure 1-2 example
//	paradigm -mdg graph.json   -procs 32 -dot       # allocate/schedule a raw MDG
//	paradigm -program cmm -procs 8 -faults 'kill:1@0.01' -recover 2   # chaos run
//	paradigm -program cmm -procs 8 -checkpoint run.wal              # crash-safe run
//	paradigm -program cmm -procs 8 -checkpoint run.wal -resume      # resume a killed run
//
// Output: the allocation, the PSA schedule (table + Gantt), the Theorem
// 1-3 bounds, and — for executable programs — the simulated execution
// time and numerical verification.
//
// Observability: -trace writes a unified Chrome/Perfetto trace (predicted
// and actual node tracks, per-message comm flows, PSA decision instants,
// and the solver's Φ-convergence counter track); -metrics dumps the
// pipeline's metrics registry as text; -pprof writes a CPU profile of the
// pipeline run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"paradigm"
	"paradigm/internal/machine"
	"paradigm/internal/mdg"
	"paradigm/internal/obs"
	"paradigm/internal/sched"
	"paradigm/internal/trace"
)

func main() {
	var (
		progName = flag.String("program", "", "built-in program: cmm | strassen | pipeline | example")
		mdgPath  = flag.String("mdg", "", "path to an MDG JSON file (alternative to -program)")
		srcPath  = flag.String("src", "", "path to a matrix-program source file (alternative to -program)")
		procs    = flag.Int("procs", 16, "system size p")
		size     = flag.Int("size", 64, "matrix size n of the built-in program's n×n matrices")
		spmd     = flag.Bool("spmd", false, "use the pure data-parallel baseline instead of the convex pipeline")
		dot      = flag.Bool("dot", false, "print the MDG in Graphviz DOT and exit")
		pb       = flag.Int("pb", 0, "processor bound PB override (0 = Corollary 1)")
		traceOut = flag.String("trace", "", "write a unified Chrome/Perfetto trace to this file")
		metrics  = flag.Bool("metrics", false, "print the pipeline metrics registry after the run")
		pprofOut = flag.String("pprof", "", "write a CPU profile of the pipeline run to this file")
		machName = flag.String("machine", "cm5", "machine: a builtin name (cm5, paragon, cm5-hetero8, paragon-memcap8) or a path to a machine-spec JSON file")
		policy   = flag.String("policy", "est", "ready-queue policy: est | fifo | hlf")
		depth    = flag.Int("depth", 1, "Strassen recursion depth (program strassen only)")
		faults   = flag.String("faults", "", "fault schedule, e.g. 'kill:1@0.02,delay:3@0.005' or 'rand:42' (see cmd/paradigm/faults.go)")
		recov    = flag.Int("recover", 0, "max failure-aware rescheduling attempts after a fault halt (0 = surface the halt)")
		ckptPath = flag.String("checkpoint", "", "write-ahead checkpoint log path; an existing log resumes the killed run")
		resume   = flag.Bool("resume", false, "require an existing checkpoint log (error instead of starting fresh)")
	)
	flag.Parse()
	if err := run(*progName, *mdgPath, *srcPath, *traceOut, *pprofOut, *machName, *policy, *faults, *ckptPath,
		*procs, *size, *depth, *recov, *spmd, *dot, *metrics, *pb, *resume); err != nil {
		fmt.Fprintln(os.Stderr, "paradigm:", err)
		os.Exit(1)
	}
}

func run(progName, mdgPath, srcPath, traceOut, pprofOut, machName, policy, faults, ckptPath string,
	procs, size, depth, recov int, spmd, dot, metrics bool, pb int, resume bool) error {
	// Every flag is checked, and the program resolved, before the run
	// acts: no profile is written, no machine calibrated and no log
	// opened for a run that cannot start.
	var pol sched.Policy
	switch policy {
	case "est":
		pol = sched.LowestEST
	case "fifo":
		pol = sched.FIFO
	case "hlf":
		pol = sched.HLF
	default:
		return fmt.Errorf("unknown policy %q (want est, fifo or hlf)", policy)
	}
	if procs < 1 {
		return fmt.Errorf("-procs %d: want at least 1", procs)
	}
	if resume && ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if spmd && ckptPath != "" {
		return fmt.Errorf("-checkpoint applies to the MPMD pipeline, not -spmd")
	}
	if spmd && faults != "" {
		return fmt.Errorf("-faults applies to the MPMD pipeline, not -spmd")
	}
	var fs faultSpec
	if faults != "" {
		var err error
		if fs, err = parseFaultSpec(faults); err != nil {
			return err
		}
	}
	inputs := 0
	for _, in := range []string{progName, mdgPath, srcPath} {
		if in != "" {
			inputs++
		}
	}
	if inputs != 1 {
		return fmt.Errorf("exactly one of -program, -src or -mdg is required (see -h)")
	}
	// The input is a bare graph (-mdg, -program example), which is only
	// allocated and scheduled, or a program built on the machine; a
	// build against loops priced at zero runs the builder's own checks.
	var (
		g     *mdg.Graph
		build func(paradigm.LoopSource) (*paradigm.Program, error)
	)
	switch {
	case mdgPath != "":
		data, err := os.ReadFile(mdgPath)
		if err != nil {
			return err
		}
		g = new(mdg.Graph)
		if err := json.Unmarshal(data, g); err != nil {
			return err
		}
		if _, _, err := g.EnsureStartStop(); err != nil {
			return err
		}
	case srcPath != "":
		text, err := os.ReadFile(srcPath)
		if err != nil {
			return err
		}
		build = func(src paradigm.LoopSource) (*paradigm.Program, error) {
			return paradigm.CompileSource(srcPath, string(text), src)
		}
	case progName == "example":
		g = paradigm.FigureOneMDG()
	default:
		build = func(src paradigm.LoopSource) (*paradigm.Program, error) {
			return paradigm.BuildProgram(progName, size, depth, src)
		}
	}
	if build != nil {
		if _, err := build(zeroLoops{}); err != nil {
			return err
		}
	}

	if pprofOut != "" {
		pf, err := os.Create(pprofOut)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// One observer pair serves the whole run: the recorder feeds the
	// unified trace, the registry feeds -metrics. Neither is attached
	// unless its flag asks for it, keeping the default run on the
	// nil-observer fast path.
	ctx := context.Background()
	var rec *paradigm.EventRecorder
	reg := paradigm.NewMetrics()
	var observers []paradigm.Observer
	if traceOut != "" {
		rec = paradigm.NewEventRecorder()
		observers = append(observers, rec)
	}
	if metrics {
		observers = append(observers, paradigm.NewMetricsObserver(reg))
	}
	ob := paradigm.MultiObserver(observers...)

	// Crash safety: an existing WAL resumes the killed run (committed
	// stages — calibration included — are restored, not recomputed). A
	// fresh log is created only when a stage worth logging commits, so a
	// run that fails before one leaves no file behind.
	var cp *paradigm.Checkpoint
	if ckptPath != "" {
		var cerr error
		if resume {
			cp, cerr = paradigm.LoadCheckpoint(ckptPath)
		} else {
			cp, cerr = paradigm.OpenDeferredCheckpoint(ckptPath)
		}
		if cerr != nil {
			return cerr
		}
		defer cp.Close()
		if stages := cp.Stages(); len(stages) > 0 {
			fmt.Printf("checkpoint: resuming %s from committed stages %v\n\n", ckptPath, stages)
		}
	}
	b, err := machineBackend(ctx, machName, ob, cp)
	if err != nil {
		return err
	}
	model := paradigm.Model{Transfer: b.Transfer()}
	// The trained profiles' output has never carried a machine line.
	if b.Kind() == paradigm.MachineAnalytical {
		fmt.Printf("machine: %s (%s backend, native p=%d)\n\n", b.Name(), b.Kind(), b.SimParams().Procs)
	}
	if metrics {
		// An info-style gauge names the machine in the -metrics dump.
		reg.Gauge(fmt.Sprintf("machine_info{name=%q,kind=%q}", b.Name(), b.Kind())).Set(1)
	}

	// Graph-only mode: allocate and schedule (no kernels to simulate).
	// The Figure 1 example carries its own processing costs and no
	// transfers.
	if g != nil {
		name := mdgPath
		if mdgPath == "" {
			name, model = "figure-1", paradigm.Model{}
		}
		if dot {
			fmt.Print(g.DOT(name))
			return nil
		}
		return allocateAndSchedule(ctx, g, model, procs, pb, ob)
	}

	p, err := build(b)
	if err != nil {
		return err
	}
	if dot {
		fmt.Print(p.G.DOT(p.Name))
		return nil
	}

	opts := []paradigm.Option{
		paradigm.WithObserver(ob),
		paradigm.WithScheduleOptions(paradigm.ScheduleOptions{PB: pb, Policy: pol}),
	}
	if cp != nil {
		opts = append(opts, paradigm.WithCheckpoint(cp))
	}
	var plan *paradigm.FaultPlan
	if faults != "" {
		hint := 0.0
		if fs.random {
			// The random schedule scales fail times by a fault-free
			// pre-run's makespan (no observer: trace and metrics should
			// describe the faulted run only).
			clean, err := paradigm.RunOnContext(ctx, p, b, procs, paradigm.WithScheduleOptions(paradigm.ScheduleOptions{PB: pb, Policy: pol}))
			if err != nil {
				return err
			}
			hint = clean.Actual
		}
		if plan, err = fs.resolve(procs, hint); err != nil {
			return err
		}
		opts = append(opts, paradigm.WithFaultPlan(plan), paradigm.WithRecovery(recov))
	}
	var res *paradigm.Result
	if spmd {
		res, err = paradigm.RunSPMDContext(ctx, p, b.SimParams(), model, procs, opts...)
	} else {
		res, err = paradigm.RunOnContext(ctx, p, b, procs, opts...)
	}
	if err != nil {
		return err
	}
	fmt.Printf("program: %s on %d processors (%s)\n\n", p.Name, procs, mode(spmd))
	if plan != nil {
		fmt.Printf("faults: %d deaths, %d message faults, %d stragglers injected\n",
			len(plan.ProcFails), len(plan.MsgFaults), len(plan.Stragglers))
		if res.Recovered {
			fmt.Printf("recovery: survived loss of processors %v in %d attempt(s); replanned on %d survivors\n\n",
				res.FailedProcs, res.RecoveryAttempts, procs-len(res.FailedProcs))
		} else {
			fmt.Printf("recovery: not needed (no fault halted the run)\n\n")
		}
	}
	fmt.Printf("allocation: Phi = %.6f s (A_p = %.6f, C_p = %.6f)\n", res.Alloc.Phi, res.Alloc.Ap, res.Alloc.Cp)
	fmt.Printf("continuous p_i: %s\n\n", formatAlloc(res.Alloc.P))
	// After recovery the schedule indexes the residual program's graph.
	fmt.Print(res.Sched.Table(res.Program.G))
	fmt.Println()
	fmt.Print(res.Sched.Gantt(res.Program.G, 80))
	if !spmd {
		t1, t2, t3, err := paradigm.TheoremBounds(procs, res.Sched.PB)
		if err != nil {
			return err
		}
		fmt.Printf("\nbounds: PB = %d; Theorem 1 = %.2f, Theorem 2 = %.2f, Theorem 3 = %.2f (T_psa <= %.4f s)\n",
			res.Sched.PB, t1, t2, t3, t3*res.Alloc.Phi)
	}
	fmt.Printf("\npredicted T_psa = %.6f s, simulated actual = %.6f s (ratio %.3f)\n",
		res.Predicted, res.Actual, res.Predicted/res.Actual)
	worst, err := paradigm.Verify(p, res.Sim)
	if err != nil {
		return err
	}
	fmt.Printf("numerical verification: max |deviation| from sequential reference = %.3g\n", worst)
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		meta := trace.Meta{Machine: b.Name(), MachineKind: string(b.Kind())}
		if err := trace.WriteUnified(f, res.Program.G, res.Sched, res.Sim, rec.Events(), meta); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d events; open in chrome://tracing or Perfetto)\n",
			traceOut, rec.Len())
	}
	if metrics {
		fmt.Printf("\nmetrics:\n%s", reg.Snapshot().Text())
	}
	return nil
}

// machineBackend resolves -machine. The two classic profiles take the
// training-sets backend of a calibration on their 64-processor profile,
// committed to (or restored from) the checkpoint when one is attached;
// any other builtin name or spec file resolves to the analytical one.
func machineBackend(ctx context.Context, name string, ob paradigm.Observer, cp *paradigm.Checkpoint) (paradigm.MachineBackend, error) {
	var profile func(int) paradigm.Machine
	switch name {
	case "cm5":
		profile = paradigm.NewCM5
	case "paragon":
		profile = paradigm.NewParagon
	default:
		return paradigm.ResolveMachine(name)
	}
	opts := []paradigm.Option{paradigm.WithObserver(ob)}
	if cp != nil {
		opts = append(opts, paradigm.WithCheckpoint(cp))
	}
	cal, err := paradigm.CalibrateContext(ctx, profile(64), opts...)
	if err != nil {
		return nil, err
	}
	return paradigm.NewTrainedMachine(cal), nil
}

// zeroLoops prices every loop at zero: a program built on it has passed
// its builder's checks without a machine.
type zeroLoops struct{}

func (zeroLoops) Loop(string, machine.LoopSpec) (paradigm.LoopParams, error) {
	return paradigm.LoopParams{}, nil
}

func mode(spmd bool) string {
	if spmd {
		return "SPMD baseline"
	}
	return "MPMD via convex allocation + PSA"
}

func allocateAndSchedule(ctx context.Context, g *paradigm.Graph, model paradigm.Model, procs, pb int, ob obs.Observer) error {
	ar, err := paradigm.AllocateContext(ctx, g, model, procs, paradigm.WithObserver(ob))
	if err != nil {
		return err
	}
	s, err := paradigm.BuildScheduleContext(ctx, g, model, ar.P, procs,
		paradigm.WithObserver(ob),
		paradigm.WithScheduleOptions(paradigm.ScheduleOptions{PB: pb}))
	if err != nil {
		return err
	}
	fmt.Printf("allocation: Phi = %.6f s (A_p = %.6f, C_p = %.6f)\n", ar.Phi, ar.Ap, ar.Cp)
	fmt.Printf("continuous p_i: %s\n\n", formatAlloc(ar.P))
	fmt.Print(s.Table(g))
	fmt.Println()
	fmt.Print(s.Gantt(g, 80))
	fmt.Printf("\nT_psa = %.6f s (deviation from Phi: %+.1f%%)\n", s.Makespan, 100*(s.Makespan-ar.Phi)/ar.Phi)
	return nil
}

func formatAlloc(p []float64) string {
	out := ""
	for i, v := range p {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", v)
	}
	return out
}
