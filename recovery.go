// Fault injection and failure-aware rescheduling: the public fault API
// and the recovery step.
//
// The paper assumes a reliable CM-5 — every processor lives to the
// barrier and every message arrives. WithFaultPlan drops that
// assumption: a deterministic fault schedule (fail-stop deaths, message
// loss/duplication/delay, kernel stragglers) is interpreted by the
// simulator, and WithRecovery turns a halted run into a replanning
// problem. A recovery attempt salvages every array whose producer
// completed and whose blocks fully survive on non-failed processors,
// rebuilds the residual program with those arrays as cheap restore
// nodes, and runs it through the pipeline's own stages on the
// survivors: the governed allocation and PSA stages, then execute —
// codegen and simulation — on the survivors' machine, whose replan hook
// is the next attempt. Salvage is bit-for-bit — restored blocks feed the
// same FP summation orders — so a recovered run verifies against the
// sequential reference exactly like an undisturbed one.
package paradigm

import (
	"context"
	"fmt"
	"sort"

	"paradigm/internal/ckpt"
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
// processors — each keeping its own speed and capacity — and resumed.
// The replan runs the allocation, scheduling and codegen stages under
// the call's budgets, retry policy and breaker, all inside the halted
// run's Execute budget; its allocation always degrades to the heuristic
// rather than fail. Each attempt emits one obs.Recovery and one
// obs.Replan event. maxAttempts <= 0 disables recovery.
func WithRecovery(maxAttempts int) Option {
	return func(c *config) { c.recoverMax = maxAttempts }
}

// replanner returns the replan hook execute hands a halted run to:
// recovery attempt number attempt on program p, which ran on mp. It is
// nil once the attempt would exceed WithRecovery's bound, and execute
// then surfaces the halt.
func (c *config) replanner(p *Program, mp Machine, model Model, src LoopSource, attempt int) func(context.Context, *sim.HaltError) (*Result, error) {
	if attempt > c.recoverMax {
		return nil
	}
	return func(ctx context.Context, halt *sim.HaltError) (*Result, error) {
		return c.recoverRun(ctx, p, mp, model, src, halt, attempt)
	}
}

// recoverRun is one recovery attempt after a halted simulation of p on
// mp: salvage, residual-program construction, then the pipeline's own
// stages on the survivors — allocStage and schedStage under a planning
// copy of the config, and execute on the survivors' machine. The re-run
// carries the *residual* fault plan — processor deaths from the halted
// run's schedule that had not yet fired, remapped onto the survivor
// numbering and rebased to the re-run's fresh clock — so a second fault
// wave halts the re-run and execute hands it to the next attempt
// (bounded by WithRecovery) instead of dropping it or surfacing a raw
// halt. Message faults and stragglers do not survive a replan: their
// coordinates (send sequence numbers, node ids) belong to the schedule
// that died with the first wave.
func (c *config) recoverRun(ctx context.Context, p *Program, mp Machine, model Model, src LoopSource, halt *sim.HaltError, attempt int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	partial := halt.Partial
	rm := mp.Survivors(halt.Failed)
	survivors := rm.Procs
	if survivors < 1 {
		return nil, fmt.Errorf("paradigm: recovery impossible: %d of %d processors lost: %w",
			len(halt.Failed), mp.Procs, halt.Sentinel)
	}

	// Stably complete frontier. Dummy START/STOP nodes run no barrier and
	// produce nothing: vacuously done.
	done := append([]bool(nil), partial.NodeDone...)
	for id, spec := range p.Specs {
		if spec.Kernel.Op == kernels.OpNone {
			done[id] = true
		}
	}
	frontier, err := sched.CompletedFrontier(p.G, done)
	if err != nil {
		return nil, err
	}

	// Salvage every array whose producer is stably complete and whose
	// blocks fully survive outside the failed processors. Sorted names
	// keep the salvage order (and its events) deterministic.
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
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
		prod, ok := p.Producer(name)
		if !ok || !frontier[prod] {
			continue
		}
		if salvaged, ok := partial.SalvageArray(name); ok {
			restored[name] = salvaged
		}
	}
	residual := 0
	for _, spec := range p.Specs {
		if spec.Kernel.Op == kernels.OpNone {
			continue
		}
		if _, ok := restored[spec.Output]; !ok {
			residual++
		}
	}
	c.emit(obs.Recovery{
		Attempt: attempt, Cause: halt.Sentinel.Error(),
		Failed: len(halt.Failed), Survivors: survivors,
		Restored: len(restored), Residual: residual,
	})

	// Make the salvage durable (or, on a resumed run, validate that the
	// recomputed salvage matches the committed record bit for bit —
	// recovery is deterministic, so a divergence is a bug).
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

	resProg, err := p.Residual(restored, func(name string, k kernels.Kernel) (costmodel.LoopParams, error) {
		return src.Loop(name, k)
	})
	if err != nil {
		return nil, err
	}

	// Replan on the surviving system size through the governed stages.
	// The replan is not journaled — a resume recomputes it from the
	// salvage — and a cached plan would skip the Replan event, so the
	// planning copy has neither checkpoint nor schedule cache. The
	// allocator degrades gracefully here regardless of the caller's
	// setting: a recovery that dies on a solver breakdown would defeat
	// its purpose. A PB tuned for the original size is dropped when it no
	// longer fits.
	plan := *c
	plan.ckpt, plan.schedCache = nil, nil
	plan.alloc.FallbackHeuristic = true
	if plan.sched.PB > survivors {
		plan.sched.PB = 0
	}
	ar, err := plan.allocStage(ctx, resProg.G, model, survivors)
	if err != nil {
		return nil, err
	}
	c.emit(obs.Replan{Attempt: attempt, Stage: "recovery", Procs: survivors, Phi: ar.Phi})
	s, err := plan.schedStage(ctx, resProg.G, model, ar.P, survivors)
	if err != nil {
		return nil, err
	}

	// The residual schedule rebases to the latest death that fired: the
	// halt is diagnosed no earlier than the last fail-stop, and pending
	// deaths keep their spacing relative to it. The re-run keeps the
	// checkpoint, so a further attempt commits its own salvage.
	rebase := 0.0
	for _, pr := range halt.Failed {
		if at, ok := c.faults.FailAt(pr); ok && at > rebase {
			rebase = at
		}
	}
	rerun := *c
	rerun.faults = c.faults.Residual(mp.Procs, halt.Failed, rebase)
	res, err := rerun.execute(ctx, resProg, ar, s, rm, rerun.replanner(resProg, rm, model, src, attempt+1))
	if err != nil {
		return nil, err
	}
	if !res.Recovered {
		// This attempt's re-run finished: the result is its own. A deeper
		// attempt's result already names the run that finished.
		res.Recovered, res.RecoveryAttempts = true, attempt
		res.FailedProcs = append([]int(nil), halt.Failed...)
	}
	return res, nil
}
