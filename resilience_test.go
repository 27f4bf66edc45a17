// Tests for the resilience surface: panic containment at the public
// boundary, cancellation of the long loops, stage budgets, bounded
// retry with deterministic backoff, and the allocation circuit breaker.
package paradigm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"paradigm/internal/obs"
	"paradigm/internal/par"
	"paradigm/internal/resil"
)

// eventsOf filters a recorder's events down to one kind.
func eventsOf[T Event](rec *EventRecorder) []T {
	var out []T
	for _, e := range rec.Events() {
		if ev, ok := e.(T); ok {
			out = append(out, ev)
		}
	}
	return out
}

func TestGuardStageMapsPanicsToTypedErrors(t *testing.T) {
	trip := func(stage string, payload any) (err error) {
		defer guardStage(stage, &err)
		panic(payload)
	}
	err := trip("allocate", "costmodel: unknown transfer kind 99")
	if !errors.Is(err, ErrUnsupportedTransfer) {
		t.Fatalf("transfer-kind panic = %v, want ErrUnsupportedTransfer", err)
	}
	if !strings.Contains(err.Error(), "allocate stage") {
		t.Fatalf("error does not name the stage: %v", err)
	}
	err = trip("execute", "matrix: block [0:8,0:8] outside 4x4")
	if !errors.Is(err, ErrBadGraph) {
		t.Fatalf("matrix panic = %v, want ErrBadGraph", err)
	}
	// Non-string panic values must still be contained.
	err = trip("run", errors.New("boom"))
	if !errors.Is(err, ErrBadGraph) {
		t.Fatalf("error-valued panic = %v, want ErrBadGraph", err)
	}
}

// A hand-corrupted program — an array shape that disagrees with the
// kernel that writes it — panics deep inside the block store. The
// public boundary must contain it as a typed error naming the stage.
func TestPanicContainedOnCorruptProgram(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(8)
	model := cal.Model()
	ar, err := AllocateContext(context.Background(), p.G, model, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildScheduleContext(context.Background(), p.G, model, ar.P, 8)
	if err != nil {
		t.Fatal(err)
	}
	arr := p.Arrays["Ar"]
	arr.Rows /= 2
	p.Arrays["Ar"] = arr

	c := newConfig(nil)
	if _, err := c.execute(context.Background(), p, ar, s, m, nil); !errors.Is(err, ErrBadGraph) {
		t.Fatalf("execute on corrupted program = %v, want ErrBadGraph", err)
	} else if !strings.Contains(err.Error(), "panic in execute stage") {
		t.Fatalf("contained panic does not name the stage: %v", err)
	}
	for name, call := range map[string]func() (*Result, error){
		"RunContext":     func() (*Result, error) { return RunContext(context.Background(), p, m, cal, 8) },
		"RunSPMDContext": func() (*Result, error) { return RunSPMDContext(context.Background(), p, m, model, 8) },
	} {
		if _, err := call(); !errors.Is(err, ErrBadGraph) || !strings.Contains(err.Error(), "panic in execute stage") {
			t.Fatalf("%s on corrupted program = %v, want ErrBadGraph from the execute stage", name, err)
		}
	}
}

// The twin of TestPanicContainedOnCorruptProgram on a program whose
// corrupted barriers reach the simulator's fanOutWork: CMM-256 on 64
// processors with Ar halved, whose products are computed on the
// simulator's executor when the pool is wider than one. The panic is
// raised on a task's goroutine; the public boundary must still contain
// it as a typed error naming the stage, and the process must live.
func TestPanicContainedOnHeavyBarrier(t *testing.T) {
	cal := testCal(t)
	m := NewCM5(64)
	model := cal.Model()
	for _, width := range []string{"2", "8"} {
		t.Run("width"+width, func(t *testing.T) {
			t.Setenv(par.EnvWorkers, width)
			p, err := ComplexMatMul(256, cal)
			if err != nil {
				t.Fatal(err)
			}
			arr := p.Arrays["Ar"]
			arr.Rows /= 2
			p.Arrays["Ar"] = arr
			for name, call := range map[string]func() (*Result, error){
				"RunContext":     func() (*Result, error) { return RunContext(context.Background(), p, m, cal, 64) },
				"RunSPMDContext": func() (*Result, error) { return RunSPMDContext(context.Background(), p, m, model, 64) },
			} {
				_, err := call()
				if !errors.Is(err, ErrBadGraph) || !strings.Contains(err.Error(), "panic in execute stage") {
					t.Fatalf("%s on corrupted program = %v, want ErrBadGraph from the execute stage", name, err)
				}
				if !strings.Contains(err.Error(), "matrix: strips") {
					t.Fatalf("%s on corrupted program = %v, want the product's panic", name, err)
				}
			}
		})
	}
}

// A corrupted transfer kind must surface as ErrUnsupportedTransfer from
// every graph-consuming entry point — never as a crash.
func TestCorruptTransferKindIsTyped(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.G.Edges) == 0 || len(p.G.Edges[0].Transfers) == 0 {
		t.Fatal("test program has no transfers to corrupt")
	}
	p.G.Edges[0].Transfers[0].Kind = 99
	model := cal.Model()
	ctx := context.Background()
	if _, err := AllocateContext(ctx, p.G, model, 8); !errors.Is(err, ErrUnsupportedTransfer) {
		t.Fatalf("AllocateContext = %v, want ErrUnsupportedTransfer", err)
	}
	if _, err := RunContext(ctx, p, NewCM5(8), cal, 8); !errors.Is(err, ErrUnsupportedTransfer) {
		t.Fatalf("RunContext = %v, want ErrUnsupportedTransfer", err)
	}
}

// A pre-cancelled context must fail before the first simulated round:
// the codegen emission loop checks per node, the simulator per sweep.
func TestPreCancelledContextFailsFast(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	model := cal.Model()
	ar, err := AllocateContext(context.Background(), p.G, model, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildScheduleContext(context.Background(), p.G, model, ar.P, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	rec := NewEventRecorder()
	c := newConfig([]Option{WithObserver(rec)})
	if _, err := c.execute(ctx, p, ar, s, NewCM5(8), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("execute = %v, want context.Canceled", err)
	}
	if runs := eventsOf[obs.NodeRun](rec); len(runs) != 0 {
		t.Fatalf("cancelled execute still simulated %d node runs", len(runs))
	}
	if _, err := BuildScheduleContext(ctx, p.G, model, ar.P, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildScheduleContext = %v, want context.Canceled", err)
	}
	if _, err := RunContext(ctx, p, NewCM5(8), cal, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
}

// cancelOnRecovery cancels a context the moment the recovery driver
// announces its first salvage attempt, so the salvage/replan loop's own
// cancellation checks are what stop the run.
type cancelOnRecovery struct{ cancel context.CancelFunc }

func (c *cancelOnRecovery) Observe(e Event) {
	if _, ok := e.(obs.Recovery); ok {
		c.cancel()
	}
}

func TestRecoveryLoopHonoursCancellation(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(8)
	hint := cleanMakespan(t, p, m, cal, 8)
	for seed := uint64(1); seed <= 8; seed++ {
		plan, err := RandomFaultPlan(seed, FaultRandOptions{
			Procs: 8, MakespanHint: hint, ProcFails: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		obsrv := &cancelOnRecovery{cancel: cancel}
		_, err = RunContext(ctx, p, m, cal, 8,
			WithFaultPlan(plan), WithRecovery(2), WithObserver(obsrv))
		cancel()
		if ctx.Err() == nil {
			continue // fault never landed mid-run; no recovery started
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: cancelled recovery = %v, want context.Canceled", seed, err)
		}
		return
	}
	t.Fatal("no seed exercised the recovery path")
}

func TestStageBudgetExpires(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	_, err = AllocateContext(context.Background(), p.G, cal.Model(), 8,
		WithStageBudgets(StageBudgets{Allocate: time.Nanosecond}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budgeted allocate = %v, want DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "allocate stage exceeded its 1ns budget") {
		t.Fatalf("budget error does not name the stage budget: %v", err)
	}
}

// A recovery replans through the governed stages: the Allocate budget
// bounds its solve as it bounds the first plan's. The first plan replays
// from a warm schedule cache, so the only solve is the recovery's, and
// its budget error surfaces named after the allocate stage — also with
// an Execute budget set around it, which must not claim the expiry.
func TestRecoveryReplanIsGoverned(t *testing.T) {
	cal := testCal(t)
	p, err := Strassen(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(8)
	sc := NewScheduleCache(8, 1)
	ctx := context.Background()
	clean, err := RunContext(ctx, p, m, cal, 8, WithScheduleCache(sc))
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{ProcFails: []ProcFail{{Proc: 2, At: clean.Actual / 5}}}
	for _, budgets := range []StageBudgets{
		{Allocate: time.Nanosecond},
		{Allocate: time.Nanosecond, Execute: time.Hour},
	} {
		rec := NewEventRecorder()
		_, err := RunContext(ctx, p, m, cal, 8, WithScheduleCache(sc), WithStageBudgets(budgets),
			WithFaultPlan(plan), WithRecovery(1), WithObserver(rec))
		if len(eventsOf[obs.Recovery](rec)) != 1 {
			t.Fatalf("budgets %+v: the plan did not replay from the cache and halt into one recovery (err %v)", budgets, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "allocate stage exceeded its 1ns budget") {
			t.Fatalf("budgets %+v: recovery under a 1ns Allocate budget = %v, want the allocate stage's budget error", budgets, err)
		}
		if strings.Contains(err.Error(), "execute stage") {
			t.Fatalf("budgets %+v: the execute stage claimed the allocate budget's expiry: %v", budgets, err)
		}
	}
}

// The SPMD baseline ends in the same execute stage as the MPMD
// pipeline: the Codegen budget bounds its lowering, and a fault plan
// that kills a processor mid-run halts it.
func TestSPMDHonoursCodegenBudgetAndFaultPlan(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	m, model := NewCM5(8), cal.Model()
	ctx := context.Background()
	_, err = RunSPMDContext(ctx, p, m, model, 8, WithStageBudgets(StageBudgets{Codegen: time.Nanosecond}))
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "codegen stage exceeded its 1ns budget") {
		t.Fatalf("budgeted SPMD codegen = %v, want the codegen stage's budget error", err)
	}

	clean, err := RunSPMDContext(ctx, p, m, model, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{ProcFails: []ProcFail{{Proc: 3, At: clean.Actual / 2}}}
	_, err = RunSPMDContext(ctx, p, m, model, 8, WithFaultPlan(plan))
	var halt *HaltError
	if !errors.Is(err, ErrProcessorLost) || !errors.As(err, &halt) {
		t.Fatalf("faulted SPMD run = %v, want a *HaltError wrapping ErrProcessorLost", err)
	}
}

func TestRetryBackoffIsDeterministic(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	model := cal.Model()
	run := func() ([]time.Duration, []obs.Retry, error) {
		var slept []time.Duration
		rec := NewEventRecorder()
		policy := RetryPolicy{
			MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 7,
			Sleep: func(_ context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			},
		}
		_, err := AllocateContext(context.Background(), p.G, model, 8,
			WithStageBudgets(StageBudgets{Allocate: time.Nanosecond}),
			WithRetry(policy), WithObserver(rec))
		return slept, eventsOf[obs.Retry](rec), err
	}

	slept1, retries1, err1 := run()
	slept2, _, err2 := run()
	if err1 == nil || err2 == nil {
		t.Fatal("1ns allocation budget did not fail")
	}
	if !errors.Is(err1, context.DeadlineExceeded) || !strings.Contains(err1.Error(), "after 3 attempt(s)") {
		t.Fatalf("exhausted retry error = %v", err1)
	}
	if len(slept1) != 2 || len(retries1) != 2 {
		t.Fatalf("3 attempts should sleep twice and emit 2 Retry events, got %d/%d", len(slept1), len(retries1))
	}
	// The delays are exactly the policy's decorrelated-jitter sequence,
	// and a re-run reproduces them bit for bit.
	want := resil.NewBackoff(RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 7})
	for i, d := range slept1 {
		if w := want.Next(); d != w {
			t.Fatalf("delay %d = %v, want %v", i, d, w)
		}
		if retries1[i].Attempt != i+1 || retries1[i].DelaySeconds != d.Seconds() {
			t.Fatalf("Retry event %d = %+v, delay %v", i, retries1[i], d)
		}
	}
	for i := range slept1 {
		if slept1[i] != slept2[i] {
			t.Fatalf("backoff not deterministic: run1 %v, run2 %v", slept1, slept2)
		}
	}
}

// Repeated budget failures within one call trip the breaker, and the
// call degrades to the heuristic allocator instead of failing.
func TestBreakerTripsToHeuristic(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	model := cal.Model()
	br := NewBreaker(BreakerOptions{Threshold: 2, Cooldown: time.Hour})
	rec := NewEventRecorder()
	noSleep := func(context.Context, time.Duration) error { return nil }

	ar, err := AllocateContext(context.Background(), p.G, model, 8,
		WithStageBudgets(StageBudgets{Allocate: time.Nanosecond}),
		WithRetry(RetryPolicy{MaxAttempts: 2, Sleep: noSleep}),
		WithBreaker(br), WithObserver(rec))
	if err != nil {
		t.Fatalf("tripped-breaker call should degrade to the heuristic, got %v", err)
	}
	if len(ar.P) != p.G.NumNodes() {
		t.Fatalf("heuristic allocation has %d entries for %d nodes", len(ar.P), p.G.NumNodes())
	}
	if br.State() != resil.StateOpen {
		t.Fatalf("breaker state = %s, want open", br.State())
	}
	breakers := eventsOf[obs.Breaker](rec)
	if len(breakers) == 0 || breakers[0].State != resil.StateOpen {
		t.Fatalf("no open Breaker event recorded: %+v", breakers)
	}
	found := false
	for _, rp := range eventsOf[obs.Replan](rec) {
		if rp.Stage == "breaker-fallback" {
			found = true
		}
	}
	if !found {
		t.Fatal("heuristic fallback did not emit its Replan event")
	}

	// While open, the next call sheds load immediately: no budget, no
	// retries, straight to the heuristic.
	rec2 := NewEventRecorder()
	ar2, err := AllocateContext(context.Background(), p.G, model, 8,
		WithBreaker(br), WithObserver(rec2))
	if err != nil {
		t.Fatalf("open-breaker call = %v", err)
	}
	if len(eventsOf[obs.Retry](rec2)) != 0 {
		t.Fatal("open breaker still ran retries")
	}
	if len(ar2.P) != len(ar.P) {
		t.Fatal("shed call returned a different allocation shape")
	}
}

// Semantic failures are never retried and never fed to the breaker.
func TestInfeasibleNeverRetried(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	br := NewBreaker(BreakerOptions{Threshold: 1, Cooldown: time.Hour})
	rec := NewEventRecorder()
	_, err = AllocateContext(context.Background(), p.G, cal.Model(), 0,
		WithRetry(RetryPolicy{MaxAttempts: 5, Sleep: func(context.Context, time.Duration) error { return nil }}),
		WithBreaker(br), WithObserver(rec))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("procs=0 = %v, want ErrInfeasible", err)
	}
	if n := len(eventsOf[obs.Retry](rec)); n != 0 {
		t.Fatalf("infeasible problem was retried %d times", n)
	}
	if br.State() != resil.StateClosed {
		t.Fatalf("infeasible failure tripped the breaker to %s", br.State())
	}
}
