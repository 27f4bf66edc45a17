// The redesigned pipeline entry points: every stage of the paper's
// pipeline is callable with a context.Context and functional Options,
// so callers can cancel long solves, tune the allocator and scheduler,
// and attach observability without widening any signature again.
//
//	rec := paradigm.NewEventRecorder()
//	reg := paradigm.NewMetrics()
//	res, err := paradigm.RunContext(ctx, p, m, cal, 64,
//	    paradigm.WithObserver(paradigm.MultiObserver(rec, paradigm.NewMetricsObserver(reg))),
//	    paradigm.WithScheduleOptions(paradigm.ScheduleOptions{PB: 8}))
//
// The positional Calibrate remains as a thin wrapper over
// CalibrateContext. With no observer attached the instrumented pipeline
// pays one nil check per would-be event — see the Run benchmark pair in
// bench_test.go.
package paradigm

import (
	"context"
	"errors"
	"fmt"

	"paradigm/internal/alloc"
	"paradigm/internal/ckpt"
	"paradigm/internal/codegen"
	"paradigm/internal/errs"
	"paradigm/internal/obs"
	"paradigm/internal/sched"
	"paradigm/internal/sim"
	"paradigm/internal/trainsets"
)

// Observability re-exports: the event/metrics layer of internal/obs.
type (
	// Observer receives structured pipeline events; see the Event kinds
	// in internal/obs. Implementations must be safe for concurrent use.
	Observer = obs.Observer
	// Event is one structured pipeline event.
	Event = obs.Event
	// Metrics is the zero-dependency metrics registry the pipeline
	// reports into (counters, gauges, histograms with a deterministic
	// text encoding).
	Metrics = obs.Registry
	// EventRecorder collects every event in memory (for the trace
	// exporter and tests).
	EventRecorder = obs.Recorder
	// AllocOptions tunes the convex allocation (backend selection,
	// allocation cache, ablations, observer).
	AllocOptions = alloc.Options
	// ADMMOptions tuned the retired consensus-ADMM allocation backend.
	//
	// Deprecated: ignored; see alloc.ADMMOptions.
	ADMMOptions = alloc.ADMMOptions
	// AllocCache is the allocation cache: a bounded LRU keyed by the
	// relabel-invariant canonical MDG hash, cost model, solve options and
	// processor count. Share one across calls via AllocOptions.Cache to
	// replay repeated allocations instantly; a miss is a cold solve.
	AllocCache = alloc.Cache
	// AllocDoneEvent reports one completed allocation solve with its
	// backend and wall-clock seconds.
	AllocDoneEvent = obs.AllocDone
)

// NewAllocCache returns an empty allocation cache holding at most
// capacity entries.
func NewAllocCache(capacity int) *AllocCache { return alloc.NewCache(capacity) }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewMetricsObserver returns an Observer folding pipeline events into r
// under the canonical metric names (DESIGN.md §8).
func NewMetricsObserver(r *Metrics) Observer { return obs.MetricsObserver(r) }

// NewEventRecorder returns an empty event recorder.
func NewEventRecorder() *EventRecorder { return obs.NewRecorder() }

// MultiObserver fans events out to every non-nil observer; with none it
// returns nil, preserving the uninstrumented fast path.
func MultiObserver(os ...Observer) Observer { return obs.Multi(os...) }

// Typed sentinel errors. Every layer wraps its failures over these with
// %w, so callers can dispatch with errors.Is regardless of which stage
// produced the failure.
var (
	// ErrInfeasible marks a problem that cannot be solved as posed
	// (non-positive system size, PB outside [1, p] or not a power of
	// two, allocation entries outside their box).
	ErrInfeasible = errs.ErrInfeasible
	// ErrBadGraph marks a structurally invalid MDG or source program.
	ErrBadGraph = errs.ErrBadGraph
	// ErrUnsupportedTransfer marks a transfer kind outside the modeled
	// regimes.
	ErrUnsupportedTransfer = errs.ErrUnsupportedTransfer
	// ErrDeadlock marks a simulated run the watchdog stopped with no
	// runnable instruction and no fault implicated (a scheduling or
	// code-generation bug). The full diagnosis is in the *HaltError.
	ErrDeadlock = errs.ErrDeadlock
	// ErrProcessorLost marks a run halted by fail-stop processor death.
	ErrProcessorLost = errs.ErrProcessorLost
	// ErrMessageLost marks a run halted by a receiver waiting on a
	// dropped message.
	ErrMessageLost = errs.ErrMessageLost
	// ErrJobJournalCorrupt marks a damaged service job journal
	// (internal/jobstore): the scheduling service refuses to boot over
	// one rather than silently dropping accepted jobs.
	ErrJobJournalCorrupt = errs.ErrJobJournalCorrupt
)

// Option configures one pipeline call.
type Option func(*config)

type config struct {
	observer Observer
	sched    ScheduleOptions
	alloc    AllocOptions
	// faults is the fault schedule handed to the simulator (nil: none).
	faults *FaultPlan
	// recoverMax bounds failure-aware rescheduling attempts (0: off).
	recoverMax int
	// ckpt is the write-ahead checkpoint log (nil: no checkpointing).
	ckpt *Checkpoint
	// budgets are the per-stage deadlines (zero fields: unbounded).
	budgets StageBudgets
	// retry bounds allocation-stage retries (MaxAttempts <= 1: off).
	retry RetryPolicy
	// breaker, when non-nil, gates the allocation solve.
	breaker *Breaker
	// schedCache, when non-nil, memoizes whole allocate→schedule plans
	// (WithScheduleCache).
	schedCache *ScheduleCache
}

// WithObserver attaches an observer to every instrumented stage of the
// call: solver stages, PSA decisions, simulated messages and processor
// accounting, and calibration fits.
func WithObserver(o Observer) Option {
	return func(c *config) { c.observer = o }
}

// WithScheduleOptions sets the PSA tuning (PB override, rounding
// ablation, ready-queue policy) for the scheduling stage.
func WithScheduleOptions(so ScheduleOptions) Option {
	return func(c *config) { c.sched = so }
}

// WithAllocOptions sets the convex-allocation tuning (backend, cache,
// transfer ablation).
func WithAllocOptions(ao AllocOptions) Option {
	return func(c *config) { c.alloc = ao }
}

func newConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	// The call-level observer reaches each stage through its options;
	// stage-specific observers set via With*Options take precedence.
	if c.sched.Observer == nil {
		c.sched.Observer = c.observer
	}
	if c.alloc.Observer == nil {
		c.alloc.Observer = c.observer
	}
	return c
}

// CalibrateContext runs the training-sets calibration with cancellation
// and instrumentation: the transfer sweep honours ctx, and every
// completed fit emits a CalibFit event to the observer. With a
// checkpoint attached the fit is committed to (or restored from) the
// "calibrate" stage record; with a Calibrate budget the sweep runs
// under its own deadline.
func CalibrateContext(ctx context.Context, m Machine, opts ...Option) (cal *Calibration, err error) {
	defer guardStage("calibrate", &err)
	c := newConfig(opts)
	if c.ckptActive() {
		if data, seq, ok := c.ckpt.log.Lookup(ckpt.StageCalibrate); ok {
			snap, derr := ckpt.DecodeCalibration(data, m)
			if derr != nil {
				return nil, derr
			}
			c.emit(obs.Resume{Stage: ckpt.StageCalibrate, Seq: seq})
			return trainsets.FromSnapshot(snap, c.observer)
		}
	}
	sctx, cancel := stageContext(ctx, c.budgets.Calibrate)
	defer cancel()
	cal, err = trainsets.CalibrateCtx(sctx, m, c.observer)
	if err != nil {
		return nil, budgetErr(ctx, sctx, "calibrate", c.budgets.Calibrate, err)
	}
	if c.ckptActive() {
		// The snapshot is taken now: loop fits join the calibration
		// lazily, and the record is the sweep's outcome, not theirs.
		snap := cal.Snapshot()
		if cerr := c.ckptCommit(ckpt.StageCalibrate, true, func() ([]byte, error) { return ckpt.EncodeCalibration(snap) }); cerr != nil {
			return nil, cerr
		}
	}
	return cal, nil
}

// AllocateContext solves the convex program of Section 2 with
// cancellation (checked after every interior-point iteration) and
// solver-convergence events. The stage honours the full governance
// surface: Allocate budget, bounded retry with jittered backoff, the
// shared circuit breaker (open: the solve degrades to the heuristic
// allocator), and checkpoint commit/restore of the allocation vector.
func AllocateContext(ctx context.Context, g *Graph, model Model, procs int, opts ...Option) (ar Allocation, err error) {
	defer guardStage("allocate", &err)
	c := newConfig(opts)
	return c.allocStage(ctx, g, model, procs)
}

// BuildScheduleContext runs the PSA of Section 3 on a continuous
// allocation, emitting PSARound and PSAPick events to the observer.
// Cancellation is checked on every list-scheduling pick; the Schedule
// budget and checkpoint stage apply.
func BuildScheduleContext(ctx context.Context, g *Graph, model Model, allocation []float64, procs int, opts ...Option) (s *Schedule, err error) {
	defer guardStage("schedule", &err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := newConfig(opts)
	return c.schedStage(ctx, g, model, allocation, procs)
}

// run is the pipeline RunContext and RunOnContext share. m is the
// simulator's ground truth, model prices the planning stages, and src
// re-prices the restore nodes of a recovery's residual program.
func run(ctx context.Context, p *Program, m Machine, model Model, src LoopSource, procs int, opts []Option) (res *Result, err error) {
	defer guardStage("run", &err)
	c := newConfig(opts)
	mp := m.WithProcs(procs)
	if err := c.ckptBindRun(p, mp, procs); err != nil {
		return nil, err
	}
	ar, s, err := c.planStages(ctx, p.G, model, procs)
	if err != nil {
		return nil, err
	}
	res, err = c.execute(ctx, p, ar, s, mp, c.replanner(p, mp, model, src, 1))
	if err != nil {
		return nil, err
	}
	if err := c.ckptDone(res); err != nil {
		return nil, err
	}
	return res, nil
}

// execute is the back half of both pipelines: the governed codegen
// stage, then the simulation on mp under the Execute budget with the
// call's observer and fault plan. A run the simulator halts is handed,
// still inside that budget, to replan when it is non-nil, and replan's
// Result takes the halted run's place. Neither
// stage reads or writes a checkpoint: lowering is a pure function of the
// program and the schedule, so a resumed run regenerates the streams
// from its restored schedule.
func (c *config) execute(ctx context.Context, p *Program, ar Allocation, s *Schedule, mp Machine, replan func(context.Context, *sim.HaltError) (*Result, error)) (res *Result, err error) {
	defer guardStage("execute", &err)
	cctx, cancel := stageContext(ctx, c.budgets.Codegen)
	streams, err := codegen.GenerateCtx(cctx, p, s)
	cancel()
	if err != nil {
		return nil, budgetErr(ctx, cctx, "codegen", c.budgets.Codegen, err)
	}
	sctx, cancel := stageContext(ctx, c.budgets.Execute)
	defer cancel()
	simRes, err := sim.RunCtx(sctx, p, streams, mp, sim.Options{
		Observer: c.observer, Faults: c.faults,
	})
	if err == nil {
		return &Result{Alloc: ar, Sched: s, Sim: simRes, Program: p, Predicted: s.Makespan, Actual: simRes.Makespan}, nil
	}
	// Declared here, not above: errors.As moves halt to the heap, and
	// only a failed run should pay for that.
	var halt *sim.HaltError
	if replan != nil && errors.As(err, &halt) {
		res, err = replan(sctx, halt)
	}
	if err != nil {
		return nil, budgetErr(ctx, sctx, "execute", c.budgets.Execute, err)
	}
	return res, nil
}

// RunContext executes the full paper pipeline — allocate, schedule,
// generate MPMD code, simulate — on machine profile m priced through
// calibration cal, with cancellation, observability, and the
// crash-safety surface: per-stage budgets, retry/breaker governance of
// the allocation solve, and write-ahead checkpointing. With a
// checkpoint attached, every completed planning stage commits one
// durable record; re-invoking with the same log resumes from the last
// committed stage, regenerates the MPMD code from the restored schedule,
// and (all stages being deterministic) produces a bit-identical Result.
func RunContext(ctx context.Context, p *Program, m Machine, cal *Calibration, procs int, opts ...Option) (*Result, error) {
	if cal == nil {
		return nil, fmt.Errorf("paradigm: %w: nil Calibration", errs.ErrBadMachineSpec)
	}
	return run(ctx, p, m, cal.Model(), cal, procs, opts)
}

// RunSPMDContext executes the pure data-parallel baseline end to end:
// every node on all procs processors, priced by model, then the same
// codegen and simulation stages as RunContext with their budgets and
// fault plan. The baseline is closed-form, so there is nothing to
// checkpoint or replan: a halted run returns its *HaltError.
func RunSPMDContext(ctx context.Context, p *Program, m Machine, model Model, procs int, opts ...Option) (res *Result, err error) {
	defer guardStage("run-spmd", &err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := newConfig(opts)
	ar, err := alloc.SPMD(p.G, model, procs)
	if err != nil {
		return nil, err
	}
	s, err := sched.SPMD(p.G, model, procs)
	if err != nil {
		return nil, err
	}
	return c.execute(ctx, p, ar, s, m.WithProcs(procs), nil)
}
