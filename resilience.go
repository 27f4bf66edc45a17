// Budget governance and panic containment: the public face of
// internal/resil.
//
// WithStageBudgets bounds each pipeline stage with its own deadline (a
// wedged solver cannot hold the caller past its allocation budget),
// WithRetry retries budget failures with decorrelated-jitter backoff,
// and WithBreaker shares a circuit breaker across calls: after repeated
// allocation timeouts the breaker opens and calls degrade straight to
// the pre-convex heuristic allocator instead of waiting on the solver
// again. None of these mask semantic failures — ErrInfeasible,
// ErrBadGraph and parent-context cancellation always surface unchanged
// (see internal/resil's classification contract).
//
// Panic containment: every public entry point (RunContext,
// AllocateContext, ...) and the execute stage both pipelines share
// recover internal panics — the costmodel's unknown-transfer-kind and
// dist's grid-position guards are reachable with a hand-corrupted
// Program — and return them as typed errors (ErrUnsupportedTransfer /
// ErrBadGraph) naming the stage, so no malformed input can crash a
// long-running service.
package paradigm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"paradigm/internal/alloc"
	"paradigm/internal/ckpt"
	"paradigm/internal/obs"
	"paradigm/internal/resil"
	"paradigm/internal/sched"
)

// Resilience re-exports.
type (
	// RetryPolicy bounds stage retries: attempt count, backoff base and
	// cap, and the deterministic jitter seed.
	RetryPolicy = resil.RetryPolicy
	// Breaker is a three-state circuit breaker (closed → open →
	// half-open) shared across pipeline calls.
	Breaker = resil.Breaker
	// BreakerOptions tunes NewBreaker (trip threshold, cooldown).
	BreakerOptions = resil.BreakerOptions
)

// NewBreaker returns a closed circuit breaker.
func NewBreaker(o BreakerOptions) *Breaker { return resil.NewBreaker(o) }

// StageBudgets assigns each pipeline stage its own deadline. A zero
// field leaves that stage unbounded. Budgets nest inside the caller's
// context: the earlier of the stage budget and the parent deadline
// wins, and a parent cancellation is never reclassified as a stage
// timeout.
type StageBudgets struct {
	Calibrate time.Duration
	Allocate  time.Duration
	Schedule  time.Duration
	Codegen   time.Duration
	Execute   time.Duration
}

// WithStageBudgets applies per-stage deadlines to the call.
func WithStageBudgets(b StageBudgets) Option {
	return func(c *config) { c.budgets = b }
}

// WithRetry retries budget failures of the allocation stage under p.
// Semantic errors and parent-context cancellation are never retried.
func WithRetry(p RetryPolicy) Option {
	return func(c *config) { c.retry = p }
}

// WithBreaker shares a circuit breaker across calls: budget failures of
// the allocation stage count toward its threshold, and while it is open
// the solve is shed to the heuristic allocator immediately.
func WithBreaker(b *Breaker) Option {
	return func(c *config) { c.breaker = b }
}

// guardStage converts an escaped internal panic into a typed error
// naming the stage. The costmodel's transfer-kind guards map to
// ErrUnsupportedTransfer; every other panic (dist grid positions,
// matrix shape guards) is a malformed-input bug: ErrBadGraph.
func guardStage(stage string, err *error) {
	r := recover()
	if r == nil {
		return
	}
	msg := fmt.Sprint(r)
	sentinel := ErrBadGraph
	if strings.Contains(msg, "transfer kind") {
		sentinel = ErrUnsupportedTransfer
	}
	*err = fmt.Errorf("paradigm: panic in %s stage: %s: %w", stage, msg, sentinel)
}

// stageContext narrows ctx to the stage budget (0: unchanged).
func stageContext(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	if budget <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, budget)
}

// budgetErr rewrites the expiry of the stage's own budget — sctx, the
// context stageContext narrowed from parent, passed its deadline while
// parent is still live — into an error naming the stage and its budget.
// Other errors pass unchanged, among them a nested stage's budget error
// (a recovery's allocate inside execute), which already names its stage.
func budgetErr(parent, sctx context.Context, stage string, budget time.Duration, err error) error {
	if err != nil && parent.Err() == nil && errors.Is(sctx.Err(), context.DeadlineExceeded) && errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("paradigm: %s stage exceeded its %v budget: %w", stage, budget, err)
	}
	return err
}

// allocStage is the governed allocation stage shared by AllocateContext
// and RunContext: checkpoint lookup, breaker gate, budgeted solve with
// bounded retry, heuristic degradation when the breaker is open, and
// checkpoint commit.
func (c *config) allocStage(ctx context.Context, g *Graph, model Model, procs int) (Allocation, error) {
	if c.ckptActive() {
		if data, seq, ok := c.ckpt.log.Lookup(ckpt.StageAlloc); ok {
			ar, err := ckpt.DecodeAlloc(data, g.NumNodes())
			if err != nil {
				return Allocation{}, err
			}
			c.emit(obs.Resume{Stage: ckpt.StageAlloc, Seq: seq})
			return ar, nil
		}
	}

	heuristic := func(state string) (Allocation, error) {
		c.emit(obs.Breaker{Stage: "alloc", State: state})
		ar, err := alloc.SolveHeuristic(g, model, procs)
		if err != nil {
			return Allocation{}, err
		}
		c.emit(obs.Replan{Stage: "breaker-fallback", Procs: procs, Phi: ar.Phi})
		return ar, nil
	}
	if c.breaker != nil && !c.breaker.Allow() {
		return c.allocCommit(heuristic(resil.StateOpen))
	}

	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := resil.NewBackoff(c.retry)
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		sctx, cancel := stageContext(ctx, c.budgets.Allocate)
		ar, err := alloc.SolveCtx(sctx, g, model, procs, c.alloc)
		cancel()
		if err == nil {
			if c.breaker != nil {
				c.breaker.Success()
			}
			return c.allocCommit(ar, nil)
		}
		err = budgetErr(ctx, sctx, "allocate", c.budgets.Allocate, err)
		switch resil.Classify(ctx, err) {
		case resil.Fatal:
			return Allocation{}, err
		case resil.Budget:
			if c.breaker != nil {
				c.breaker.Failure()
			}
		}
		lastErr = err
		if attempt < attempts {
			d := backoff.Next()
			c.emit(obs.Retry{Stage: "alloc", Attempt: attempt, DelaySeconds: d.Seconds(), Err: err.Error()})
			if serr := resil.Sleep(ctx, d, c.retry.Sleep); serr != nil {
				return Allocation{}, serr
			}
		}
	}
	if c.breaker != nil && !c.breaker.Allow() {
		// The retries themselves tripped the breaker: degrade rather
		// than fail, exactly as the next caller would.
		return c.allocCommit(heuristic(resil.StateOpen))
	}
	return Allocation{}, fmt.Errorf("paradigm: allocation failed after %d attempt(s): %w", attempts, lastErr)
}

// allocCommit checkpoints a successful allocation before returning it.
// An allocation a solver produced is what a deferred checkpoint exists
// for; one replayed from a cache is not worth a file.
func (c *config) allocCommit(ar Allocation, err error) (Allocation, error) {
	if err != nil || !c.ckptActive() {
		return ar, err
	}
	solved := ar.Backend != alloc.BackendCache && ar.Backend != BackendSchedCache
	if cerr := c.ckptCommit(ckpt.StageAlloc, solved, func() ([]byte, error) { return ckpt.EncodeAlloc(ar) }); cerr != nil {
		return Allocation{}, cerr
	}
	return ar, nil
}

// schedStage is the governed PSA stage shared by BuildScheduleContext
// and RunContext.
func (c *config) schedStage(ctx context.Context, g *Graph, model Model, allocation []float64, procs int) (*Schedule, error) {
	if c.ckptActive() {
		if data, seq, ok := c.ckpt.log.Lookup(ckpt.StageSched); ok {
			s, err := ckpt.DecodeSchedule(data, g.NumNodes(), procs)
			if err != nil {
				return nil, err
			}
			c.emit(obs.Resume{Stage: ckpt.StageSched, Seq: seq})
			return s, nil
		}
	}
	sctx, cancel := stageContext(ctx, c.budgets.Schedule)
	defer cancel()
	s, err := sched.RunCtx(sctx, g, model, allocation, procs, c.sched)
	if err != nil {
		return nil, budgetErr(ctx, sctx, "schedule", c.budgets.Schedule, err)
	}
	if cerr := c.schedCommit(s); cerr != nil {
		return nil, cerr
	}
	return s, nil
}

// schedCommit checkpoints a completed schedule (no-op without an active
// checkpoint). Shared by schedStage and the schedule-cache replay path.
func (c *config) schedCommit(s *Schedule) error {
	if !c.ckptActive() {
		return nil
	}
	return c.ckptCommit(ckpt.StageSched, false, func() ([]byte, error) { return ckpt.EncodeSchedule(s) })
}
