package paradigm

import (
	"context"
	"math"
	"strings"
	"testing"

	"paradigm/internal/bounds"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/programs"
	"paradigm/internal/sched"
)

func testCal(t testing.TB) *Calibration {
	t.Helper()
	cal, err := CalibrateContext(context.Background(), NewCM5(64))
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func TestFacadeFullPipelineCMM(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(64)
	mixed, err := RunContext(context.Background(), p, m, cal, 16)
	if err != nil {
		t.Fatal(err)
	}
	spmd, err := RunSPMDContext(context.Background(), p, m, cal.Model(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Actual >= spmd.Actual {
		t.Fatalf("MPMD %v should beat SPMD %v", mixed.Actual, spmd.Actual)
	}
	worst, err := Verify(p, mixed.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-9 {
		t.Fatalf("numerical deviation %v", worst)
	}
	if mixed.Predicted <= 0 || math.Abs(mixed.Predicted-mixed.Actual) > 0.5*mixed.Actual {
		t.Fatalf("prediction %v vs actual %v diverged", mixed.Predicted, mixed.Actual)
	}
}

func TestFacadeBuilderRoundTrip(t *testing.T) {
	cal := testCal(t)
	b := NewProgramBuilder("custom")
	initK := kernels.Kernel{Op: kernels.OpInit, M: 8, N: 8,
		Init: kernels.Elementwise(func(i, j int) float64 { return float64(i ^ j) })}
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
	b.AddNode("dbl", NodeSpec{Kernel: addK, Inputs: []string{"X", "X"}, Output: "Y", Axis: dist.ByRow}, lpAdd)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), p, NewCM5(8), cal, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Sim.Gather("Y")
	if err != nil {
		t.Fatal(err)
	}
	if got.At(3, 5) != 2*float64(3^5) {
		t.Fatalf("Y[3,5] = %v", got.At(3, 5))
	}
}

func TestFacadeBounds(t *testing.T) {
	pb, factor, err := bounds.OptimalPB(64)
	if err != nil || pb < 1 || factor <= 1 {
		t.Fatalf("bounds.OptimalPB: %d %v %v", pb, factor, err)
	}
	t1, t2, t3, err := TheoremBounds(64, pb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t3-t1*t2) > 1e-9 {
		t.Fatalf("t3 %v != t1·t2 %v", t3, t1*t2)
	}
	if _, _, _, err := TheoremBounds(64, 100); err == nil {
		t.Fatal("want error for PB > p")
	}
}

func TestFacadeFigureOne(t *testing.T) {
	g := FigureOneMDG()
	ar, err := AllocateContext(context.Background(), g, Model{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildScheduleContext(context.Background(), g, Model{}, ar.P, 4, WithScheduleOptions(ScheduleOptions{PB: 4}))
	if err != nil {
		t.Fatal(err)
	}
	spmd, err := sched.SPMD(g, Model{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan >= spmd.Makespan {
		t.Fatalf("mixed %v should beat naive %v", s.Makespan, spmd.Makespan)
	}
}

// TestBuildProgramTable: every name of the program table builds its
// builder's program with size as the matrix size, "strassen" at depth 1
// is the paper's program, and an unknown name is refused with the
// table's names.
func TestBuildProgramTable(t *testing.T) {
	cal := testCal(t)
	for _, c := range []struct {
		name  string
		depth int
		want  func() (*Program, error)
	}{
		{"cmm", 1, func() (*Program, error) { return ComplexMatMul(32, cal) }},
		{"strassen", 1, func() (*Program, error) { return Strassen(32, cal) }},
		{"strassen", 2, func() (*Program, error) { return StrassenRecursive(32, 2, cal) }},
		{"pipeline", 1, func() (*Program, error) { return SyntheticPipeline(32, 4, 3, cal) }},
	} {
		got, err := BuildProgram(c.name, 32, c.depth, cal)
		if err != nil {
			t.Fatalf("%s depth %d: %v", c.name, c.depth, err)
		}
		want, err := c.want()
		if err != nil {
			t.Fatal(err)
		}
		gh, _, _ := got.G.CanonicalHash()
		wh, _, _ := want.G.CanonicalHash()
		if got.Name != want.Name || gh != wh {
			t.Errorf("%s depth %d built %s (%s), want %s (%s)", c.name, c.depth, got.Name, gh, want.Name, wh)
		}
	}
	_, err := BuildProgram("bogus", 32, 1, cal)
	if err == nil || !strings.Contains(err.Error(), `unknown program "bogus" (want one of cmm, strassen, pipeline)`) {
		t.Fatalf("unknown name: %v", err)
	}
}

func TestSpeedupHelper(t *testing.T) {
	if sp, err := Speedup(10, 2); err != nil || sp != 5 {
		t.Fatalf("Speedup = %v, %v", sp, err)
	}
	if _, err := Speedup(0, 1); err == nil {
		t.Fatal("want error")
	}
	if _, err := Speedup(1, 0); err == nil {
		t.Fatal("want error")
	}
}

func TestFacadeNewExports(t *testing.T) {
	cal := testCal(t)
	// Grid variant compiles and runs.
	pg, err := programs.ComplexMatMulLayout(32, cal, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), pg, NewCM5(16), cal, 16)
	if err != nil {
		t.Fatal(err)
	}
	if worst, err := Verify(pg, res.Sim); err != nil || worst > 1e-9 {
		t.Fatalf("grid CMM verification: %v %v", worst, err)
	}
	// Recursive Strassen depth 0 (single multiply).
	ps, err := StrassenRecursive(16, 0, cal)
	if err != nil {
		t.Fatal(err)
	}
	if ps.G.NumNodes() != 4 { // 2 inits + 1 mul + START dummy (mul is the sink)
		t.Fatalf("depth-0 nodes = %d", ps.G.NumNodes())
	}
	// Paragon profile is valid and distinct.
	par := NewParagon(32)
	if err := par.Validate(); err != nil {
		t.Fatal(err)
	}
	if par.NetPerByte == 0 {
		t.Fatal("Paragon needs t_n > 0")
	}
	// Source compilation through the facade.
	src := "matrix A = init(8, 8, ones)\nmatrix B = A + A\n"
	pc, err := CompileSource("tiny", src, cal)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pc.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	if ref["B"].At(0, 0) != 2 {
		t.Fatalf("B[0,0] = %v", ref["B"].At(0, 0))
	}
}
