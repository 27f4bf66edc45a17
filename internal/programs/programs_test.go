package programs

import (
	"math"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/codegen"
	"paradigm/internal/costmodel"
	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/matrix"
	"paradigm/internal/mdg"
	"paradigm/internal/prog"
	"paradigm/internal/sched"
	"paradigm/internal/sim"
	"paradigm/internal/trainsets"
)

func calibration(t testing.TB) *trainsets.Calibration {
	t.Helper()
	c, err := trainsets.Calibrate(machine.CM5(64))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFigureOneExampleNumbers(t *testing.T) {
	g := FigureOneMDG()
	m := costmodel.Model{}
	// Naive SPMD on 4 processors: 15.6 s (the paper's first scheme).
	spmd, err := sched.SPMD(g, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spmd.Makespan-15.6) > 0.05 {
		t.Fatalf("naive makespan = %v, want 15.6", spmd.Makespan)
	}
	// Mixed: N1 on 4, N2 and N3 on 2 each: 14.3 s (the second scheme).
	// Node ids: N1=0, N2=1, N3=2, then START/STOP dummies.
	allocv := make([]int, g.NumNodes())
	for i := range allocv {
		allocv[i] = 1
	}
	allocv[0] = 4
	allocv[1], allocv[2] = 2, 2
	mixed, err := sched.PSA(g, m, allocv, 4, sched.LowestEST)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mixed.Makespan-14.3) > 0.05 {
		t.Fatalf("mixed makespan = %v, want 14.3", mixed.Makespan)
	}
}

func TestFigureOneConvexAllocatorFindsSplit(t *testing.T) {
	g := FigureOneMDG()
	m := costmodel.Model{}
	ar, err := alloc.Solve(g, m, 4, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(g, m, ar.P, 4, sched.Options{PB: 4})
	if err != nil {
		t.Fatal(err)
	}
	spmd, err := sched.SPMD(g, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan >= spmd.Makespan {
		t.Fatalf("pipeline makespan %v should beat naive %v", s.Makespan, spmd.Makespan)
	}
}

func TestComplexMatMulStructure(t *testing.T) {
	cal := calibration(t)
	p, err := ComplexMatMul(16, cal)
	if err != nil {
		t.Fatal(err)
	}
	// 10 computation nodes + START/STOP dummies.
	real := 0
	for _, spec := range p.Specs {
		if spec.Kernel.Op != kernels.OpNone {
			real++
		}
	}
	if real != 10 {
		t.Fatalf("computation nodes = %d, want 10", real)
	}
	// The paper: all transfers are 1D in both algorithms.
	for _, e := range p.G.Edges {
		for _, tr := range e.Transfers {
			if tr.Kind != mdg.Transfer1D {
				t.Fatalf("edge %d->%d has %v transfer, want all 1D", e.From, e.To, tr.Kind)
			}
		}
	}
}

// complexReference computes the complex product directly from the init
// generators.
func complexReference(t *testing.T, p *prog.Program) (cr, ci *matrix.Matrix) {
	t.Helper()
	ref, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	ar, ai, br, bi := ref["Ar"], ref["Ai"], ref["Br"], ref["Bi"]
	n := ar.Rows
	arbr, aibi, arbi, aibr := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	if err := matrix.Mul(arbr, ar, br); err != nil {
		t.Fatal(err)
	}
	if err := matrix.Mul(aibi, ai, bi); err != nil {
		t.Fatal(err)
	}
	if err := matrix.Mul(arbi, ar, bi); err != nil {
		t.Fatal(err)
	}
	if err := matrix.Mul(aibr, ai, br); err != nil {
		t.Fatal(err)
	}
	cr, ci = matrix.New(n, n), matrix.New(n, n)
	if err := matrix.Sub(cr, arbr, aibi); err != nil {
		t.Fatal(err)
	}
	if err := matrix.Add(ci, arbi, aibr); err != nil {
		t.Fatal(err)
	}
	return cr, ci
}

func TestComplexMatMulSimulatedCorrect(t *testing.T) {
	cal := calibration(t)
	p, err := ComplexMatMul(16, cal)
	if err != nil {
		t.Fatal(err)
	}
	model := cal.Model()
	ar, err := alloc.Solve(p.G, model, 16, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(p.G, model, ar.P, 16, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := codegen.Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(p, streams, machine.CM5(16))
	if err != nil {
		t.Fatal(err)
	}
	wantCr, wantCi := complexReference(t, p)
	gotCr, err := res.Gather("Cr")
	if err != nil {
		t.Fatal(err)
	}
	gotCi, err := res.Gather("Ci")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(gotCr, wantCr, 1e-9) || !matrix.Equal(gotCi, wantCi, 1e-9) {
		t.Fatal("simulated complex product differs from direct computation")
	}
}

func TestStrassenStructure(t *testing.T) {
	cal := calibration(t)
	p, err := Strassen(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[kernels.Op]int{}
	for _, spec := range p.Specs {
		counts[spec.Kernel.Op]++
	}
	if counts[kernels.OpInit] != 8 {
		t.Fatalf("inits = %d, want 8", counts[kernels.OpInit])
	}
	if counts[kernels.OpMul] != 7 {
		t.Fatalf("muls = %d, want 7 (Strassen's point)", counts[kernels.OpMul])
	}
	if counts[kernels.OpAdd]+counts[kernels.OpSub] != 18 {
		t.Fatalf("adds+subs = %d, want 18", counts[kernels.OpAdd]+counts[kernels.OpSub])
	}
	for _, e := range p.G.Edges {
		for _, tr := range e.Transfers {
			if tr.Kind != mdg.Transfer1D {
				t.Fatalf("transfer %v, want all 1D", tr.Kind)
			}
		}
	}
	if _, err := Strassen(31, cal); err == nil {
		t.Fatal("want error for odd size")
	}
}

// TestStrassenMatchesDirectMultiply: the whole point of the program — the
// quadrant assembly of the simulated Strassen run equals the direct
// product of the conceptual operands.
func TestStrassenMatchesDirectMultiply(t *testing.T) {
	cal := calibration(t)
	const n = 32
	p, err := Strassen(n, cal)
	if err != nil {
		t.Fatal(err)
	}
	model := cal.Model()
	ar, err := alloc.Solve(p.G, model, 16, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(p.G, model, ar.P, 16, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := codegen.Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(p, streams, machine.CM5(16))
	if err != nil {
		t.Fatal(err)
	}
	c, err := gatherC(res, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Direct product of the conceptual operands.
	a := matrix.New(n, n)
	bm := matrix.New(n, n)
	a.Fill(AElem)
	bm.Fill(BElem)
	want := matrix.New(n, n)
	if err := matrix.Mul(want, a, bm); err != nil {
		t.Fatal(err)
	}
	d, err := matrix.MaxAbsDiff(c, want)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Fatalf("Strassen result differs from direct multiply by %v", d)
	}
}

func TestSyntheticPipeline(t *testing.T) {
	cal := calibration(t)
	p, err := SyntheticPipeline(8, 3, 2, cal)
	if err != nil {
		t.Fatal(err)
	}
	// 1 init + width*depth adds + reduction (width-1 adds).
	real := 0
	for _, spec := range p.Specs {
		if spec.Kernel.Op != kernels.OpNone {
			real++
		}
	}
	if real != 1+3*2+2 {
		t.Fatalf("nodes = %d, want %d", real, 1+3*2+2)
	}
	if _, err := p.ReferenceRun(); err != nil {
		t.Fatal(err)
	}
	if _, err := SyntheticPipeline(0, 1, 1, cal); err == nil {
		t.Fatal("want size error")
	}
}

func BenchmarkStrassenPipeline16(b *testing.B) {
	cal := calibration(b)
	p, err := Strassen(32, cal)
	if err != nil {
		b.Fatal(err)
	}
	model := cal.Model()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar, err := alloc.Solve(p.G, model, 16, alloc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sched.Run(p.G, model, ar.P, 16, sched.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStrassenRecursiveDepths: every recursion depth produces the same
// numerically verified product through the full simulated pipeline.
func TestStrassenRecursiveDepths(t *testing.T) {
	cal := calibration(t)
	const n = 32
	a := matrix.New(n, n)
	bm := matrix.New(n, n)
	a.Fill(AElem)
	bm.Fill(BElem)
	want := matrix.New(n, n)
	if err := matrix.Mul(want, a, bm); err != nil {
		t.Fatal(err)
	}
	nodeCounts := map[int]int{}
	for depth := 0; depth <= 2; depth++ {
		p, err := StrassenRecursive(n, depth, cal)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		nodeCounts[depth] = p.G.NumNodes()
		model := cal.Model()
		ar, err := alloc.Solve(p.G, model, 16, alloc.Options{})
		if err != nil {
			t.Fatalf("depth %d alloc: %v", depth, err)
		}
		s, err := sched.Run(p.G, model, ar.P, 16, sched.Options{})
		if err != nil {
			t.Fatalf("depth %d sched: %v", depth, err)
		}
		streams, err := codegen.Generate(p, s)
		if err != nil {
			t.Fatalf("depth %d codegen: %v", depth, err)
		}
		res, err := sim.Run(p, streams, machine.CM5(16))
		if err != nil {
			t.Fatalf("depth %d sim: %v", depth, err)
		}
		got, err := gatherC(res, n, depth)
		if err != nil {
			t.Fatalf("depth %d gather: %v", depth, err)
		}
		d, err := matrix.MaxAbsDiff(got, want)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-9 {
			t.Fatalf("depth %d: result differs from direct product by %v", depth, d)
		}
	}
	// Node counts must grow steeply with depth (7x multiplies per level).
	if !(nodeCounts[0] < nodeCounts[1] && nodeCounts[1] < nodeCounts[2]) {
		t.Fatalf("node counts not growing: %v", nodeCounts)
	}
	if nodeCounts[2] < 150 {
		t.Fatalf("depth-2 MDG suspiciously small: %d nodes", nodeCounts[2])
	}
}

// gatherC gathers the product of an n×n Strassen run at depth: the
// array C at depth 0, its quadrants C11, C12, C21 and C22 otherwise.
func gatherC(res *sim.Result, n, depth int) (*matrix.Matrix, error) {
	if depth == 0 {
		return res.Gather("C")
	}
	h := n / 2
	c := matrix.New(n, n)
	for _, q := range []struct {
		name   string
		r0, c0 int
	}{{"C11", 0, 0}, {"C12", 0, h}, {"C21", h, 0}, {"C22", h, h}} {
		blk, err := res.Gather(q.name)
		if err != nil {
			return nil, err
		}
		c.SetBlock(q.r0, q.c0, blk)
	}
	return c, nil
}

func TestStrassenRecursiveValidation(t *testing.T) {
	cal := calibration(t)
	if _, err := StrassenRecursive(0, 1, cal); err == nil {
		t.Fatal("want size error")
	}
	if _, err := StrassenRecursive(32, -1, cal); err == nil {
		t.Fatal("want depth error")
	}
	if _, err := StrassenRecursive(30, 2, cal); err == nil {
		t.Fatal("want divisibility error")
	}
}
