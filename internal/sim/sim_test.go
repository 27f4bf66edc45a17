package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"paradigm/internal/alloc"
	"paradigm/internal/codegen"
	"paradigm/internal/costmodel"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/matrix"
	"paradigm/internal/mdg"
	"paradigm/internal/prog"
	"paradigm/internal/sched"
)

var cm5Fit = costmodel.Model{Transfer: costmodel.TransferParams{
	Tss: 777.56e-6, Tps: 486.98e-9, Tsr: 465.58e-6, Tpr: 426.25e-9, Tn: 0,
}}

func lp(a, t float64) costmodel.LoopParams { return costmodel.LoopParams{Alpha: a, Tau: t} }

// mulProgram builds C = A·B (n×n) with A ByRow, B ByCol (forcing a 2D
// redistribution), C ByRow.
func mulProgram(t testing.TB, n int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("mul")
	b.AddNode("initA", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpInit, M: n, N: n,
			Init: kernels.Elementwise(func(i, j int) float64 { return float64(i*3+j) / 7 })},
		Output: "A", Axis: dist.ByRow,
	}, lp(0.05, 0.002))
	b.AddNode("initB", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpInit, M: n, N: n,
			Init: kernels.Elementwise(func(i, j int) float64 { return float64(i-2*j) / 5 })},
		Output: "B", Axis: dist.ByCol,
	}, lp(0.05, 0.002))
	b.AddNode("mul", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpMul, M: n, N: n, K: n},
		Inputs: []string{"A", "B"}, Output: "C", Axis: dist.ByRow,
	}, lp(0.12, 0.3))
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pipeline runs alloc -> PSA -> codegen for a program.
func pipeline(t testing.TB, p *prog.Program, procs int) (*sched.Schedule, *codegen.Streams) {
	t.Helper()
	ar, err := alloc.Solve(p.G, cm5Fit, procs, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(p.G, cm5Fit, ar.P, procs, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(p.G, cm5Fit); err != nil {
		t.Fatal(err)
	}
	streams, err := codegen.Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	return s, streams
}

func TestMulPipelineEndToEnd(t *testing.T) {
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	res, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %v", res.Makespan)
	}
	ref, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Gather("C")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, ref["C"], 1e-9) {
		d, _ := matrix.MaxAbsDiff(got, ref["C"])
		t.Fatalf("simulated C differs from reference by %v", d)
	}
}

func TestSPMDPipelineEndToEnd(t *testing.T) {
	p := mulProgram(t, 16)
	s, err := sched.SPMD(p.G, cm5Fit, 8)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := codegen.Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := p.ReferenceRun()
	got, err := res.Gather("C")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, ref["C"], 1e-9) {
		t.Fatal("SPMD simulated C differs from reference")
	}
}

func TestGatherUnknownArray(t *testing.T) {
	p := mulProgram(t, 8)
	_, streams := pipeline(t, p, 4)
	res, err := Run(p, streams, machine.CM5(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Gather("nope"); err == nil {
		t.Fatal("want error for unknown array")
	}
}

func TestNodeTimesConsistent(t *testing.T) {
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	res, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	mulID := -1
	for i, nd := range p.G.Nodes {
		if nd.Name == "mul" {
			mulID = i
		}
	}
	if mulID < 0 {
		t.Fatal("mul node not found")
	}
	// The multiply cannot start before both inits finish (data dependency).
	for i, nd := range p.G.Nodes {
		if strings.HasPrefix(nd.Name, "init") && res.NodeFinish[i] > res.NodeStart[mulID] {
			t.Fatalf("mul started at %v before %s finished at %v",
				res.NodeStart[mulID], nd.Name, res.NodeFinish[i])
		}
	}
	if res.Makespan < res.NodeFinish[mulID] {
		t.Fatalf("makespan %v < mul finish %v", res.Makespan, res.NodeFinish[mulID])
	}
}

func TestByColMultiply(t *testing.T) {
	// Multiply distributed by columns: gathers A instead of B.
	b := prog.NewBuilder("mulcol")
	n := 12
	b.AddNode("initA", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpInit, M: n, N: n,
			Init: kernels.Elementwise(func(i, j int) float64 { return float64(i + 2*j) })},
		Output: "A", Axis: dist.ByRow,
	}, lp(0.05, 0.001))
	b.AddNode("initB", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpInit, M: n, N: n,
			Init: kernels.Elementwise(func(i, j int) float64 { return float64(3*i - j) })},
		Output: "B", Axis: dist.ByRow,
	}, lp(0.05, 0.001))
	b.AddNode("mul", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpMul, M: n, N: n, K: n},
		Inputs: []string{"A", "B"}, Output: "C", Axis: dist.ByCol,
	}, lp(0.12, 0.05))
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	_, streams := pipeline(t, p, 4)
	res, err := Run(p, streams, machine.CM5(4))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := p.ReferenceRun()
	got, err := res.Gather("C")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, ref["C"], 1e-9) {
		t.Fatal("ByCol multiply wrong")
	}
}

func TestMoreProcsThanRows(t *testing.T) {
	// 4x4 matrices on 8 processors: some blocks are empty; the run must
	// still complete and verify.
	p := mulProgram(t, 4)
	s, err := sched.SPMD(p.G, cm5Fit, 8)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := codegen.Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := p.ReferenceRun()
	got, err := res.Gather("C")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, ref["C"], 1e-9) {
		t.Fatal("empty-block multiply wrong")
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Corrupt a generated program: drop one Send so its Recv blocks
	// forever. The simulator must diagnose, not hang.
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	removed := false
	for pr, stream := range streams.PerProc {
		for i, in := range stream {
			if in.Op == codegen.Send {
				streams.PerProc[pr] = append(stream[:i:i], stream[i+1:]...)
				removed = true
				break
			}
		}
		if removed {
			break
		}
	}
	if !removed {
		t.Skip("no sends generated")
	}
	_, err := Run(p, streams, machine.CM5(8))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock diagnosis", err)
	}
}

func TestMissingInstanceDiagnosed(t *testing.T) {
	// Corrupt the program: make a Send read an instance no processor holds.
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	ghost := int32(len(streams.Instances))
	streams.Instances = append(streams.Instances, codegen.Instance{Array: "ghost", Node: 99})
	patched := false
	for _, stream := range streams.PerProc {
		for i, in := range stream {
			if in.Op == codegen.Send {
				stream[i].Src = ghost
				patched = true
				break
			}
		}
		if patched {
			break
		}
	}
	if !patched {
		t.Skip("no sends generated")
	}
	_, err := Run(p, streams, machine.CM5(8))
	if err == nil || !strings.Contains(err.Error(), "missing instance") {
		t.Fatalf("err = %v, want missing-instance diagnosis", err)
	}
}

func TestMachineValidation(t *testing.T) {
	p := mulProgram(t, 8)
	_, streams := pipeline(t, p, 4)
	bad := machine.CM5(4)
	bad.FMATime = -1
	if _, err := Run(p, streams, bad); err == nil {
		t.Fatal("want machine validation error")
	}
	small := machine.CM5(2)
	if _, err := Run(p, streams, small); err == nil {
		t.Fatal("want too-few-processors error")
	}
}

func TestClocksMonotone(t *testing.T) {
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	res, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	for pr, c := range res.ProcClock {
		if c < 0 {
			t.Fatalf("proc %d clock %v", pr, c)
		}
	}
}

// randomAddChainProgram builds a random chain/diamond of adds over one
// initialized matrix, with random axes (forcing a mix of 1D and 2D
// redistributions).
func randomAddChainProgram(rng *rand.Rand, n, depth int) (*prog.Program, error) {
	b := prog.NewBuilder("rand")
	axis := func() dist.Axis {
		if rng.Intn(2) == 0 {
			return dist.ByRow
		}
		return dist.ByCol
	}
	b.AddNode("init0", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpInit, M: n, N: n,
			Init: kernels.Elementwise(func(i, j int) float64 { return float64(i*n+j) / 11 })},
		Output: "m0", Axis: axis(),
	}, lp(0.05, 0.001))
	names := []string{"m0"}
	for d := 1; d <= depth; d++ {
		a := names[rng.Intn(len(names))]
		c := names[rng.Intn(len(names))]
		op := kernels.OpAdd
		if rng.Intn(2) == 1 {
			op = kernels.OpSub
		}
		out := "m" + string(rune('0'+d))
		b.AddNode("n"+out, prog.NodeSpec{
			Kernel: kernels.Kernel{Op: op, M: n, N: n},
			Inputs: []string{a, c}, Output: out, Axis: axis(),
		}, lp(0.1, 0.002))
		names = append(names, out)
	}
	return b.Finish()
}

// TestRandomProgramsNumericallyCorrect: the full pipeline preserves
// numerical semantics on random DAG programs under random schedules.
func TestRandomProgramsNumericallyCorrect(t *testing.T) {
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		p, err := randomAddChainProgram(rng, 4+rng.Intn(12), 2+rng.Intn(6))
		if err != nil {
			return false
		}
		const procs = 8
		// Random power-of-two allocation rather than the optimizer, to
		// explore more schedule shapes.
		allocv := make([]int, p.G.NumNodes())
		for i := range allocv {
			allocv[i] = 1 << rng.Intn(4)
		}
		s, err := sched.PSA(p.G, cm5Fit, allocv, procs, sched.LowestEST)
		if err != nil {
			return false
		}
		streams, err := codegen.Generate(p, s)
		if err != nil {
			return false
		}
		res, err := Run(p, streams, machine.CM5(procs))
		if err != nil {
			return false
		}
		ref, err := p.ReferenceRun()
		if err != nil {
			return false
		}
		for name := range p.Arrays {
			got, err := res.Gather(name)
			if err != nil {
				return false
			}
			if !matrix.Equal(got, ref[name], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimulateMul32On8(b *testing.B) {
	p := mulProgram(b, 32)
	_, streams := pipeline(b, p, 8)
	mp := machine.CM5(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, streams, mp); err != nil {
			b.Fatal(err)
		}
	}
}

// gridMulProgram builds C = A·B with the multiply on a grid layout,
// exercising L2G redistribution and the grid exec path.
func gridMulProgram(t testing.TB, n int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("gridmul")
	b.AddNode("initA", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpInit, M: n, N: n,
			Init: kernels.Elementwise(func(i, j int) float64 { return float64(2*i-j) / 9 })},
		Output: "A", Axis: dist.ByRow,
	}, lp(0.05, 0.002))
	b.AddNode("initB", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpInit, M: n, N: n,
			Init: kernels.Elementwise(func(i, j int) float64 { return float64(i+3*j) / 7 })},
		Output: "B", Axis: dist.ByCol,
	}, lp(0.05, 0.002))
	b.AddNode("mul", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpMul, M: n, N: n, K: n},
		Inputs: []string{"A", "B"}, Output: "C", Axis: dist.ByGrid,
	}, lp(0.08, 0.3))
	b.AddNode("post", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpAdd, M: n, N: n},
		Inputs: []string{"C", "A"}, Output: "D", Axis: dist.ByRow,
	}, lp(0.06, 0.004))
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGridMulEndToEnd(t *testing.T) {
	p := gridMulProgram(t, 20)
	// The mul node's edges must carry the extended kinds.
	mulID, _ := p.Producer("C")
	aID, _ := p.Producer("A")
	e, ok := p.G.EdgeBetween(aID, mulID)
	if !ok || e.Transfers[0].Kind.String() != "L2G" {
		t.Fatalf("A->mul edge = %+v", e)
	}
	postID, _ := p.Producer("D")
	e, ok = p.G.EdgeBetween(mulID, postID)
	if !ok || e.Transfers[0].Kind.String() != "G2L" {
		t.Fatalf("mul->post edge = %+v", e)
	}
	_, streams := pipeline(t, p, 8)
	res, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"C", "D"} {
		got, err := res.Gather(name)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(got, ref[name], 1e-9) {
			t.Fatalf("grid pipeline array %q wrong", name)
		}
	}
}

func TestGridMulNonSquareGroupAndOddSizes(t *testing.T) {
	// 6 processors (2x3 grid), 11x11 matrices: uneven blocks everywhere.
	p := gridMulProgram(t, 11)
	allocv := make([]int, p.G.NumNodes())
	for i := range allocv {
		allocv[i] = 1
	}
	mulID, _ := p.Producer("C")
	allocv[mulID] = 6
	s, err := sched.PSA(p.G, cm5Fit, allocv, 8, sched.LowestEST)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := codegen.Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := p.ReferenceRun()
	got, err := res.Gather("D")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, ref["D"], 1e-9) {
		t.Fatal("odd-size grid multiply wrong")
	}
}

func TestDuplicateTagDiagnosed(t *testing.T) {
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	// Duplicate an existing Send immediately after the original, so the
	// second copy lands before any receiver can drain the first.
	found := false
	for pr, stream := range streams.PerProc {
		for i, in := range stream {
			if in.Op == codegen.Send {
				patched := append([]codegen.Instr{}, stream[:i+1]...)
				patched = append(patched, in)
				patched = append(patched, stream[i+1:]...)
				streams.PerProc[pr] = patched
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no sends")
	}
	_, err := Run(p, streams, machine.CM5(8))
	if err == nil || !strings.Contains(err.Error(), "duplicate message tag") {
		t.Fatalf("err = %v, want duplicate-tag diagnosis", err)
	}
}

func TestMoveFromMissingInstance(t *testing.T) {
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	// Prepend a Move reading an instance no processor holds on proc 0.
	ghost := int32(len(streams.Instances))
	streams.Instances = append(streams.Instances, codegen.Instance{Array: "ghost", Node: 1}, codegen.Instance{Array: "ghost", Node: 2})
	streams.PerProc[0] = append([]codegen.Instr{{
		Op:      codegen.Move,
		Payload: codegen.Rect{R0: 0, R1: 1, C0: 0, C1: 1},
		Src:     ghost,
		Dst:     ghost + 1,
		Block:   codegen.Rect{R0: 0, R1: 1, C0: 0, C1: 1},
	}}, streams.PerProc[0]...)
	_, err := Run(p, streams, machine.CM5(8))
	if err == nil || !strings.Contains(err.Error(), "missing instance") {
		t.Fatalf("err = %v, want missing-instance diagnosis", err)
	}
}

func TestGatherDetectsIncompleteCoverage(t *testing.T) {
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	res, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	// Delete one block of C from its owner's store: the producer's
	// output instance, whose id is the node's.
	producer, _ := p.Producer("C")
	removed := false
	for pr := range res.stores {
		if res.stores[pr][producer] != nil {
			res.stores[pr][producer] = nil
			removed = true
			break
		}
	}
	if !removed {
		t.Fatal("no C block found")
	}
	if _, err := res.Gather("C"); err == nil {
		t.Fatal("want coverage error")
	}
}

func TestJitteredRunStillVerifies(t *testing.T) {
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	mp := machine.CM5(8)
	mp.JitterFrac = 0.25
	mp.JitterSeed = 7
	res, err := Run(p, streams, mp)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < clean.Makespan {
		t.Fatalf("jittered run faster than clean: %v < %v", res.Makespan, clean.Makespan)
	}
	ref, _ := p.ReferenceRun()
	got, err := res.Gather("C")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, ref["C"], 1e-9) {
		t.Fatal("jitter corrupted data")
	}
}

// TestOutOfTableIDsRefused: an instruction whose id indexes past its
// table, an unknown op, or tables sized for another program are refused
// before the run starts, not met as an index panic mid-run.
func TestOutOfTableIDsRefused(t *testing.T) {
	p := mulProgram(t, 16)
	for _, tc := range []struct {
		name  string
		patch func(s *codegen.Streams)
		want  string
	}{
		{"message id", func(s *codegen.Streams) {
			s.PerProc[0] = append(s.PerProc[0], codegen.Instr{Op: codegen.Send, Msg: int32(len(s.Messages))})
		}, "outside the streams' tables"},
		{"instance id", func(s *codegen.Streams) {
			s.PerProc[0] = append(s.PerProc[0], codegen.Instr{Op: codegen.Move, Src: -1})
		}, "outside the streams' tables"},
		{"node", func(s *codegen.Streams) {
			s.PerProc[0] = append(s.PerProc[0], codegen.Instr{Op: codegen.Exec, Node: mdg.NodeID(p.G.NumNodes())})
		}, "outside the streams' tables"},
		{"op", func(s *codegen.Streams) {
			s.PerProc[0] = append(s.PerProc[0], codegen.Instr{Op: 9})
		}, "unknown instruction Op(9)"},
		{"tables", func(s *codegen.Streams) { s.Groups = s.Groups[:1] }, "do not fit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, streams := pipeline(t, p, 8)
			tc.patch(streams)
			if _, err := Run(p, streams, machine.CM5(8)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
