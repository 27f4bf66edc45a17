// Tests for the redesigned pipeline surface: typed sentinel errors,
// context cancellation at every entry point, the metrics registry's
// determinism across worker-pool widths, and the observer wiring of the
// options API.
package paradigm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/obs"
	"paradigm/internal/par"
)

// tinyProgram builds the quickstart two-node program (row-distributed
// init feeding a column-distributed add over an 8x8 matrix).
func tinyProgram(t testing.TB, cal *Calibration) *Program {
	t.Helper()
	b := NewProgramBuilder("tiny")
	initK := kernels.Kernel{Op: kernels.OpInit, M: 8, N: 8,
		Init: kernels.Elementwise(func(i, j int) float64 { return float64(i + j) })}
	lpInit, err := cal.Loop("init8", initK)
	if err != nil {
		t.Fatal(err)
	}
	addK := kernels.Kernel{Op: kernels.OpAdd, M: 8, N: 8}
	lpAdd, err := cal.Loop("add8", addK)
	if err != nil {
		t.Fatal(err)
	}
	b.AddNode("src", NodeSpec{Kernel: initK, Output: "X", Axis: dist.ByRow}, lpInit)
	b.AddNode("dbl", NodeSpec{Kernel: addK, Inputs: []string{"X", "X"}, Output: "Y", Axis: dist.ByCol}, lpAdd)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSentinelErrors(t *testing.T) {
	cal := testCal(t)
	model := cal.Model()
	g := FigureOneMDG()

	cyclic := &Graph{}
	a := cyclic.AddNode(Node{Name: "a", Tau: 1})
	bn := cyclic.AddNode(Node{Name: "b", Tau: 1})
	cyclic.AddEdge(a, bn)
	cyclic.AddEdge(bn, a)

	badKind := &Graph{}
	x := badKind.AddNode(Node{Name: "x", Tau: 1})
	y := badKind.AddNode(Node{Name: "y", Tau: 1})
	badKind.AddEdge(x, y, Transfer{Bytes: 64, Kind: 99})

	cases := []struct {
		name string
		err  func() error
		want []error
	}{
		{"allocate zero procs", func() error {
			_, err := AllocateContext(context.Background(), g, model, 0)
			return err
		}, []error{ErrInfeasible}},
		{"spmd zero procs", func() error {
			_, err := alloc.SPMD(g, model, 0)
			return err
		}, []error{ErrInfeasible}},
		{"schedule non-power-of-two PB", func() error {
			ar, err := AllocateContext(context.Background(), g, model, 16)
			if err != nil {
				return err
			}
			_, err = BuildScheduleContext(context.Background(), g, model, ar.P, 16, WithScheduleOptions(ScheduleOptions{PB: 3}))
			return err
		}, []error{ErrInfeasible}},
		{"allocate cyclic graph", func() error {
			_, err := AllocateContext(context.Background(), cyclic, model, 4)
			return err
		}, []error{ErrBadGraph}},
		{"unknown transfer kind", func() error {
			_, err := AllocateContext(context.Background(), badKind, model, 4)
			return err
		}, []error{ErrBadGraph, ErrUnsupportedTransfer}},
		{"frontend shape mismatch", func() error {
			_, err := CompileSource("bad", "matrix a = init(4, 4, ramp)\nmatrix b = init(8, 8, ramp)\nmatrix c = a + b\n", cal)
			return err
		}, []error{ErrBadGraph}},
		{"simulator watchdog halt", func() error {
			// An impossibly tight virtual deadline trips the watchdog with
			// no fault implicated: the halt wraps ErrDeadlock and carries
			// the *HaltError diagnosis.
			p := tinyProgram(t, cal)
			_, err := RunContext(context.Background(), p, NewCM5(8), cal, 8,
				WithVirtualDeadline(1e-12))
			if err != nil {
				var halt *HaltError
				if !errors.As(err, &halt) {
					t.Fatalf("watchdog halt is %T, want *HaltError", err)
				}
			}
			return err
		}, []error{ErrDeadlock}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			for _, want := range tc.want {
				if !errors.Is(err, want) {
					t.Fatalf("error %v is not %v", err, want)
				}
			}
		})
	}
}

func TestContextCancellation(t *testing.T) {
	cal := testCal(t)
	p := tinyProgram(t, cal)
	model := cal.Model()
	m := NewCM5(8)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := CalibrateContext(ctx, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("CalibrateContext: want context.Canceled, got %v", err)
	}
	if _, err := AllocateContext(ctx, p.G, model, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("AllocateContext: want context.Canceled, got %v", err)
	}
	ar, err := AllocateContext(context.Background(), p.G, model, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildScheduleContext(ctx, p.G, model, ar.P, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildScheduleContext: want context.Canceled, got %v", err)
	}
	s, err := BuildScheduleContext(context.Background(), p.G, model, ar.P, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := newConfig(nil)
	if _, err := c.execute(ctx, p, ar, s, m, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("execute: want context.Canceled, got %v", err)
	}
	if _, err := RunContext(ctx, p, m, cal, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext: want context.Canceled, got %v", err)
	}
	if _, err := RunSPMDContext(ctx, p, m, model, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSPMDContext: want context.Canceled, got %v", err)
	}

	// A live context must not disturb the pipeline.
	if _, err := RunContext(context.Background(), p, m, cal, 8); err != nil {
		t.Fatalf("RunContext with live context: %v", err)
	}
}

// TestObserverWiring checks that a call-level observer reaches every
// instrumented stage through the options plumbing.
func TestObserverWiring(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewEventRecorder()
	_, err = RunContext(context.Background(), p, NewCM5(16), cal, 16, WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range rec.Events() {
		kinds[fmt.Sprintf("%T", e)]++
	}
	for _, want := range []obs.Event{obs.SolverStage{}, obs.PSARound{}, obs.PSAPick{},
		obs.Comm{}, obs.NodeRun{}, obs.ProcStat{}} {
		if name := fmt.Sprintf("%T", want); kinds[name] == 0 {
			t.Fatalf("no %s events recorded (got %v)", name, kinds)
		}
	}
}

// TestMetricsDeterminismAcrossWorkers runs the instrumented pipeline at
// worker-pool widths 1 and 8 and requires byte-identical metrics text:
// the registry's integer counters and fixed-point histogram sums make the
// folds order-independent. CMM-128's group barriers are big enough that
// the simulator computes their blocks on the worker pool, so the two
// widths really run different fan-outs (TestRecoveryWidthIndependent).
func TestMetricsDeterminismAcrossWorkers(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(128, cal)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(width string) string {
		t.Setenv(par.EnvWorkers, width)
		reg := NewMetrics()
		_, err := RunContext(context.Background(), p, NewCM5(16), cal, 16,
			WithObserver(NewMetricsObserver(reg)))
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Text()
	}
	one := snapshot("1")
	eight := snapshot("8")
	if one != eight {
		t.Fatalf("metrics text differs between worker widths:\n--- width 1 ---\n%s\n--- width 8 ---\n%s", one, eight)
	}
	if one == "" {
		t.Fatal("empty metrics snapshot")
	}
}
