// Fault injection and failure-aware rescheduling: the public fault API
// and the recovery driver.
//
// The paper assumes a reliable CM-5 — every processor lives to the
// barrier and every message arrives. WithFaultPlan drops that
// assumption: a deterministic fault schedule (fail-stop deaths, message
// loss/duplication/delay, kernel stragglers) is interpreted by the
// simulator, and WithRecovery turns a halted run into a replanning
// problem. The driver salvages every array whose producer completed and
// whose blocks fully survive on non-failed processors, rebuilds the
// residual program with those arrays as cheap restore nodes, re-runs
// allocation and PSA on the surviving system size, regenerates MPMD
// code, and resumes. Salvage is bit-for-bit — restored blocks feed the
// same FP summation orders — so a recovered run verifies against the
// sequential reference exactly like an undisturbed one.
package paradigm

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"paradigm/internal/alloc"
	"paradigm/internal/ckpt"
	"paradigm/internal/codegen"
	"paradigm/internal/costmodel"
	"paradigm/internal/fault"
	"paradigm/internal/kernels"
	"paradigm/internal/obs"
	"paradigm/internal/sched"
	"paradigm/internal/sim"
)

// Fault-model re-exports.
type (
	// FaultPlan is a deterministic fault schedule the simulator
	// interprets: fail-stop deaths, message faults, stragglers.
	FaultPlan = fault.Plan
	// ProcFail is one fail-stop processor death at a virtual time.
	ProcFail = fault.ProcFail
	// MsgFault is one message loss/duplication/delay, matched by global
	// send sequence number or codegen tag.
	MsgFault = fault.MsgFault
	// Straggler is a multiplicative kernel slowdown for one (node, proc).
	Straggler = fault.Straggler
	// FaultRandOptions shapes RandomFaultPlan's draws.
	FaultRandOptions = fault.RandOptions
	// HaltError is the simulator's classified stop: it wraps
	// ErrProcessorLost, ErrMessageLost or ErrDeadlock and carries the
	// partial machine state recovery replans from.
	HaltError = sim.HaltError
)

// Message fault kinds.
const (
	// FaultDrop discards the message after the send cost is paid.
	FaultDrop = fault.Drop
	// FaultDuplicate delivers a spurious second copy (discarded by tag
	// matching at one extra overhead).
	FaultDuplicate = fault.Duplicate
	// FaultDelay adds Extra seconds of network latency.
	FaultDelay = fault.Delay
)

// RandomFaultPlan builds a randomized-but-seeded fault schedule: the
// same seed and options always produce the same plan, which is what
// makes chaos runs reproducible.
func RandomFaultPlan(seed uint64, o FaultRandOptions) (*FaultPlan, error) {
	return fault.Rand(seed, o)
}

// WithFaultPlan attaches a fault schedule to a pipeline run (RunContext,
// RunOnContext, RunSPMDContext). The simulator interprets it; a run it halts returns a
// *HaltError wrapping ErrProcessorLost, ErrMessageLost or ErrDeadlock. A
// nil or empty plan is a no-op, leaving the fault-free pipeline
// byte-identical.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *config) { c.faults = p }
}

// WithRecovery enables failure-aware rescheduling on RunContext and
// RunOnContext (the SPMD baseline has no plan to redo): up to
// maxAttempts times, a halted simulation is salvaged (completed arrays
// restored from surviving blocks), replanned on the surviving
// processors, and resumed. Each attempt emits one obs.Recovery and one
// obs.Replan event. maxAttempts <= 0 disables recovery.
func WithRecovery(maxAttempts int) Option {
	return func(c *config) { c.recoverMax = maxAttempts }
}

// WithVirtualDeadline halts any simulated run whose virtual clock
// passes d seconds, with a full blocked-processor diagnosis — the
// watchdog bound for runs a fault has stretched beyond all
// plausibility. d <= 0 (the default) disables the bound.
func WithVirtualDeadline(d float64) Option {
	return func(c *config) { c.deadline = d }
}

// recoverRun drives failure-aware rescheduling after a halted
// simulation: salvage, residual-program construction, replanning on the
// survivors, and re-execution. The re-run carries the *residual* fault
// plan — processor deaths from the original schedule that had not yet
// fired, remapped onto the compacted survivor indexing and rebased to
// the re-run's fresh clock — so a second fault wave landing during or
// after salvage→replan halts the re-run and re-enters this loop
// (bounded by the retry budget) instead of being silently dropped or
// surfacing as a raw halt. Message faults and stragglers do not survive
// a replan: their coordinates (send sequence numbers, node ids) belong
// to the schedule that died with the first wave.
func recoverRun(ctx context.Context, p *Program, m Machine, model Model, src LoopSource, procs int, halt *sim.HaltError, c *config) (*Result, error) {
	curP, curProcs, curPlan := p, procs, c.faults
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		partial := halt.Partial
		survivors := curProcs - len(halt.Failed)
		if survivors < 1 {
			return nil, fmt.Errorf("paradigm: recovery impossible: %d of %d processors lost: %w",
				len(halt.Failed), curProcs, halt.Sentinel)
		}

		// Stably complete frontier. Dummy START/STOP nodes run no barrier
		// and produce nothing: vacuously done.
		done := append([]bool(nil), partial.NodeDone...)
		for id, spec := range curP.Specs {
			if spec.Kernel.Op == kernels.OpNone {
				done[id] = true
			}
		}
		frontier, err := sched.CompletedFrontier(curP.G, done)
		if err != nil {
			return nil, err
		}

		// Salvage every array whose producer is stably complete and whose
		// blocks fully survive outside the failed processors. Sorted names
		// keep the salvage order (and its events) deterministic.
		names := make([]string, 0, len(curP.Arrays))
		for name := range curP.Arrays {
			names = append(names, name)
		}
		sort.Strings(names)
		restored := map[string]*Matrix{}
		for _, name := range names {
			// Salvage can touch every block of every array: honour
			// cancellation per array, like the solver does per iteration.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			prod, ok := curP.Producer(name)
			if !ok || !frontier[prod] {
				continue
			}
			if salvaged, ok := partial.SalvageArray(name); ok {
				restored[name] = salvaged
			}
		}
		residual := 0
		for _, spec := range curP.Specs {
			if spec.Kernel.Op == kernels.OpNone {
				continue
			}
			if _, ok := restored[spec.Output]; !ok {
				residual++
			}
		}
		if c.observer != nil {
			c.observer.Observe(obs.Recovery{
				Attempt: attempt, Cause: halt.Sentinel.Error(),
				Failed: len(halt.Failed), Survivors: survivors,
				Restored: len(restored), Residual: residual,
			})
		}

		// Make the salvage durable (or, on a resumed run, validate that
		// the recomputed salvage matches the committed record bit for
		// bit — recovery is deterministic, so a divergence is a bug).
		if c.ckptActive() {
			if err := c.ckptSalvage(fmt.Sprintf("%s-%d", ckpt.StageSalvage, attempt), ckpt.SalvageState{
				Attempt: attempt, Survivors: survivors,
				Failed: append([]int(nil), halt.Failed...), Arrays: restored,
			}); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		resProg, err := curP.Residual(restored, func(name string, k kernels.Kernel) (costmodel.LoopParams, error) {
			return src.Loop(name, k)
		})
		if err != nil {
			return nil, err
		}

		// Replan on the surviving system size. The allocator degrades
		// gracefully here regardless of the caller's setting — a recovery
		// that dies on a solver breakdown would defeat its purpose. A PB
		// tuned for the original size is dropped when it no longer fits.
		allocOpts := c.alloc
		allocOpts.FallbackHeuristic = true
		ar, err := alloc.SolveCtx(ctx, resProg.G, model, survivors, allocOpts)
		if err != nil {
			return nil, err
		}
		if c.observer != nil {
			c.observer.Observe(obs.Replan{Attempt: attempt, Stage: "recovery", Procs: survivors, Phi: ar.Phi})
		}
		schedOpts := c.sched
		if schedOpts.PB > survivors {
			schedOpts.PB = 0
		}
		s, err := sched.Run(resProg.G, model, ar.P, survivors, schedOpts)
		if err != nil {
			return nil, err
		}
		streams, err := codegen.Generate(resProg, s)
		if err != nil {
			return nil, err
		}
		// The residual schedule rebases to the latest death that fired:
		// the halt is diagnosed no earlier than the last fail-stop, and
		// pending deaths keep their spacing relative to it.
		rebase := 0.0
		for _, pr := range halt.Failed {
			if at, ok := curPlan.FailAt(pr); ok && at > rebase {
				rebase = at
			}
		}
		resPlan := curPlan.Residual(curProcs, halt.Failed, rebase)
		simRes, err := sim.RunCtx(ctx, resProg, streams, m.WithProcs(survivors), sim.Options{
			Observer: c.observer, Faults: resPlan, VirtualDeadline: c.deadline,
		})
		if err != nil {
			var h2 *sim.HaltError
			if attempt < c.recoverMax && errors.As(err, &h2) {
				halt, curP, curProcs, curPlan = h2, resProg, survivors, resPlan
				continue
			}
			return nil, err
		}
		return &Result{
			Alloc: ar, Sched: s, Sim: simRes, Program: resProg,
			Predicted: s.Makespan, Actual: simRes.Makespan,
			Recovered: true, RecoveryAttempts: attempt,
			FailedProcs: append([]int(nil), halt.Failed...),
		}, nil
	}
}
