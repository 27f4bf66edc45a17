package codegen

import (
	"testing"

	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/prog"
	"paradigm/internal/sched"
)

// gridProgram builds a program whose multiply node is grid-distributed.
func gridProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("grid")
	initK := kernels.Kernel{Op: kernels.OpInit, M: 8, N: 8, Init: kernels.Elementwise(func(i, j int) float64 { return 1 })}
	b.AddNode("initA", prog.NodeSpec{Kernel: initK, Output: "A", Axis: dist.ByRow}, lp(0.05, 0.001))
	b.AddNode("initB", prog.NodeSpec{Kernel: kernels.Kernel{Op: kernels.OpInit, M: 8, N: 8,
		Init: kernels.Elementwise(func(i, j int) float64 { return 2 })}, Output: "B", Axis: dist.ByRow}, lp(0.05, 0.001))
	b.AddNode("mul", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpMul, M: 8, N: 8, K: 8},
		Inputs: []string{"A", "B"}, Output: "C", Axis: dist.ByGrid,
	}, lp(0.1, 0.01))
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlacementForGrid(t *testing.T) {
	pl, err := PlacementFor(prog.Array{Name: "A", Rows: 8, Cols: 8}, dist.ByGrid, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Blocks) != 4 {
		t.Fatalf("blocks = %d", len(pl.Blocks))
	}
	// 2x2 grid of 4x4 blocks, group order row-major.
	if b := pl.Blocks[3]; b.Proc != 3 || b.R0 != 4 || b.C0 != 4 {
		t.Fatalf("block 3 = %+v", b)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := PlacementFor(prog.Array{Rows: 8, Cols: 8}, dist.ByGrid, nil); err == nil {
		t.Fatal("want empty-group error")
	}
	if _, err := PlacementFor(prog.Array{Rows: 8, Cols: 8}, dist.ByRow, []int{0, 0}); err == nil {
		t.Fatal("want duplicate-proc error")
	}
}

func TestGenerateGridProgramStreams(t *testing.T) {
	p := gridProgram(t)
	allocv := make([]int, p.G.NumNodes())
	for i := range allocv {
		allocv[i] = 4
	}
	s, err := sched.PSA(p.G, cm5Fit, allocv, 4, sched.LowestEST)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	st := streams.Stats()
	if st.Execs != 12 { // 3 nodes × 4 procs
		t.Fatalf("execs = %d", st.Execs)
	}
	// Redistribution row -> grid with the same group produces both local
	// moves and real messages (blocks only partially overlap).
	if st.Moves == 0 || st.Sends == 0 {
		t.Fatalf("expected mixed moves and sends, got %+v", st)
	}
	if st.NetworkBytes+st.LocalBytes != 2*8*8*8 {
		t.Fatalf("moved %d bytes, want %d", st.NetworkBytes+st.LocalBytes, 2*8*8*8)
	}
}

func TestGenerateRejectsEmptyGroup(t *testing.T) {
	p := gridProgram(t)
	s := &sched.Schedule{
		ProcsTotal: 4,
		Entries:    make([]sched.Entry, p.G.NumNodes()),
		Alloc:      make([]int, p.G.NumNodes()),
	}
	if _, err := Generate(p, s); err == nil {
		t.Fatal("want empty-group error")
	}
}
