package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"paradigm/internal/codegen"
	"paradigm/internal/fault"
	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/matrix"
	"paradigm/internal/obs"
	"paradigm/internal/par"
	"paradigm/internal/prog"
	"paradigm/internal/programs"
)

// TestSimDataPlaneMixedPathsWidthIndependent extends the width-1 against
// width-8 comparison to programs in which barriers below fanOutWork read
// blocks that the executor computes, so the step loop waits for them:
// recursive Strassen-256 at depth 2, whose 64×64 extracts read 128×128
// inits, and CMM-256 with grid-layout products. Clocks, events and every
// gathered bit must be equal, and equal to the sequential reference.
func TestSimDataPlaneMixedPathsWidthIndependent(t *testing.T) {
	cal := calibration(t)
	strassen, err := programs.StrassenRecursive(256, 2, cal)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := programs.ComplexMatMulLayout(256, cal, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *prog.Program
	}{
		{"strassen256-d2-p64", strassen},
		{"cmm256-grid-p64", grid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, streams := pipeline(t, tc.p, 64)
			mp := machine.CM5(64)
			one := observe(t, "1", tc.p, streams, mp, nil)
			eight := observe(t, "8", tc.p, streams, mp, nil)
			requireSameOutcome(t, one, eight)
			if len(one.arrays) != len(tc.p.Arrays) {
				t.Fatalf("gathered %d of %d arrays", len(one.arrays), len(tc.p.Arrays))
			}
			requireReferenceBits(t, tc.p, eight)
			barriers := 0
			for _, spec := range tc.p.Specs {
				if spec.Kernel.Op != kernels.OpNone {
					barriers++
				}
			}
			if eight.result.fannedOut == 0 || eight.result.fannedOut == barriers {
				t.Fatalf("%d of %d barriers at fanOutWork: the program does not mix the two paths",
					eight.result.fannedOut, barriers)
			}
		})
	}
}

// TestOnlyHeavyRunsStartAnExecutor: a run none of whose barriers reaches
// fanOutWork starts no executor under a wide pool, and a run with one
// does, so the count is not vacuous. With TestServiceSizedRunStaysInline
// this keeps a service-sized job on the goroutine that runs it.
func TestOnlyHeavyRunsStartAnExecutor(t *testing.T) {
	t.Setenv(par.EnvWorkers, "8")
	strassen, err := programs.Strassen(128, calibration(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		p     *prog.Program
		procs int
		heavy bool
	}{
		{"cmm127-p35", cmm(t, 127), 35, false},
		{"strassen128-p64", strassen, 64, false},
		{"cmm128-p35", cmm(t, 128), 35, true},
	} {
		_, streams := pipeline(t, tc.p, tc.procs)
		before := executorsStarted.Load()
		res, err := Run(tc.p, streams, machine.CM5(tc.procs))
		if err != nil {
			t.Fatal(err)
		}
		started := executorsStarted.Load() - before
		if (started == 1) != tc.heavy || started > 1 || (res.fannedOut > 0) != tc.heavy {
			t.Fatalf("%s: %d executors started, %d barriers at fanOutWork", tc.name, started, res.fannedOut)
		}
	}
}

// TestNoGoroutineOutlivesARun: CMM-256 on 64 processors under a pool of
// 8 runs to completion, is cancelled while the executor holds queued
// products, and halts on a processor's death. After each, the goroutine
// count returns to what it was before the run, and the halted run's
// salvaged arrays equal the sequential reference bit for bit.
func TestNoGoroutineOutlivesARun(t *testing.T) {
	t.Setenv(par.EnvWorkers, "8")
	p := cmm(t, 256)
	_, streams := pipeline(t, p, 64)
	mp := machine.CM5(64)

	clean, err := Run(p, streams, mp)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"complete", func(t *testing.T) {
			if _, err := Run(p, streams, mp); err != nil {
				t.Fatal(err)
			}
		}},
		{"cancelled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Cancel at the first product's NodeRun event: its data
			// work is queued on the executor behind the inits.
			stop := cancelAt{p: p, op: kernels.OpMul, cancel: cancel}
			if _, err := RunCtx(ctx, p, streams, mp, Options{Observer: stop}); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: err = %v", err)
			}
		}},
		{"halted", func(t *testing.T) {
			plan := &fault.Plan{ProcFails: []fault.ProcFail{{Proc: 21, At: clean.Makespan / 2}}}
			o := observe(t, "8", p, streams, mp, plan)
			if o.err == "" || len(o.arrays) == 0 {
				t.Fatalf("halted run: err %q, %d arrays salvaged", o.err, len(o.arrays))
			}
			requireReferenceBits(t, p, o)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			started := executorsStarted.Load()
			tc.run(t)
			if executorsStarted.Load() == started {
				t.Fatal("the run started no executor")
			}
			requireGoroutinesBackTo(t, base)
		})
	}
}

// cancelAt cancels a run when it executes the first barrier of kernel op.
type cancelAt struct {
	p      *prog.Program
	op     kernels.Op
	cancel context.CancelFunc
}

func (c cancelAt) Observe(e obs.Event) {
	if n, ok := e.(obs.NodeRun); ok && c.p.Specs[n.Node].Kernel.Op == c.op {
		c.cancel()
	}
}

// TestTaskPanicReachesTheRun: a panic in a barrier computed on the
// executor is raised again on the goroutine that called RunCtx, after
// every task stopped, where a recover can contain it. The product of a
// CMM-256 whose Ar has half its rows reads outside Ar.
func TestTaskPanicReachesTheRun(t *testing.T) {
	for _, width := range []string{"2", "8"} {
		t.Run("width"+width, func(t *testing.T) {
			t.Setenv(par.EnvWorkers, width)
			p := cmm(t, 256)
			arr := p.Arrays["Ar"]
			arr.Rows /= 2
			p.Arrays["Ar"] = arr
			_, streams := pipeline(t, p, 64)
			base := runtime.NumGoroutine()
			started := executorsStarted.Load()
			panicked := func() (r any) {
				defer func() { r = recover() }()
				_, err := Run(p, streams, machine.CM5(64))
				t.Fatalf("run returned %v, want a panic", err)
				return nil
			}()
			if msg, _ := panicked.(string); !strings.HasPrefix(msg, "matrix: strips") {
				t.Fatalf("panic %v, want the product's", panicked)
			}
			if executorsStarted.Load() == started {
				t.Fatal("the run started no executor")
			}
			requireGoroutinesBackTo(t, base)
		})
	}
}

// requireGoroutinesBackTo fails unless the goroutine count falls back to
// base within a few seconds: an exited goroutine may still be counted for
// a moment after the WaitGroup it signalled.
func requireGoroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorReportsTheFirstFailureInBarrierOrder: whatever order tasks
// fail in, finish reports the failure of the task submitted first; a
// task whose input block a failed task was to compute stops without a
// failure of its own; and a panic is raised by finish only when its task
// is the first to fail.
func TestExecutorReportsTheFirstFailureInBarrierOrder(t *testing.T) {
	errFirst, errLater := errors.New("first"), errors.New("later")
	for _, tc := range []struct {
		name        string
		first, then func() error
		want        error
		wantPanic   bool
	}{
		{"errors", func() error { return errFirst }, func() error { return errLater }, errFirst, false},
		{"later panics", func() error { return errFirst }, func() error { panic("later") }, errFirst, false},
		{"first panics", func() error { panic("first") }, func() error { return errLater }, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newExecutor(2, 3)
			gate := make(chan struct{})
			firstOut := &block{}
			// The first task fails only after the second has failed.
			e.submit([]*block{firstOut}, func() error { <-gate; return tc.first() })
			laterOut := &block{}
			e.submit([]*block{laterOut}, func() error {
				defer close(gate)
				return tc.then()
			})
			// A reader of the first task's block stops quietly.
			e.submit(nil, func() error { return firstOut.wait() })
			defer func() {
				r := recover()
				if (r != nil) != tc.wantPanic {
					t.Fatalf("recovered %v, want a panic: %v", r, tc.wantPanic)
				}
			}()
			if err := e.finish(); err != tc.want {
				t.Fatalf("finish = %v, want %v", err, tc.want)
			}
		})
	}
}

// newBlock makes a producer block over r that owns zeroed data.
func newBlock(r codegen.Rect) *block {
	b := &block{rect: r}
	if !r.Empty() {
		b.data = matrix.New(r.R1-r.R0, r.C1-r.C0)
	}
	return b
}
