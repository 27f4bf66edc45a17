package codegen

import (
	"testing"

	"paradigm/internal/costmodel"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/mdg"
	"paradigm/internal/prog"
	"paradigm/internal/sched"
)

var cm5Fit = costmodel.Model{Transfer: costmodel.TransferParams{
	Tss: 777.56e-6, Tps: 486.98e-9, Tsr: 465.58e-6, Tpr: 426.25e-9, Tn: 0,
}}

func lp(a, t float64) costmodel.LoopParams { return costmodel.LoopParams{Alpha: a, Tau: t} }

func addProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("add")
	k := func(gen func(i, j int) float64) kernels.Kernel {
		return kernels.Kernel{Op: kernels.OpInit, M: 8, N: 8, Init: kernels.Elementwise(gen)}
	}
	b.AddNode("initA", prog.NodeSpec{Kernel: k(func(i, j int) float64 { return 1 }), Output: "A", Axis: dist.ByRow}, lp(0.05, 0.001))
	b.AddNode("initB", prog.NodeSpec{Kernel: k(func(i, j int) float64 { return 2 }), Output: "B", Axis: dist.ByCol}, lp(0.05, 0.001))
	b.AddNode("add", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpAdd, M: 8, N: 8},
		Inputs: []string{"A", "B"}, Output: "C", Axis: dist.ByRow,
	}, lp(0.07, 0.004))
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func genStreams(t *testing.T, p *prog.Program, procs int) (*sched.Schedule, *Streams) {
	t.Helper()
	allocv := make([]int, p.G.NumNodes())
	for i := range allocv {
		allocv[i] = 2
	}
	s, err := sched.PSA(p.G, cm5Fit, allocv, procs, sched.LowestEST)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	return s, streams
}

func TestGenerateOrderingInvariants(t *testing.T) {
	p := addProgram(t)
	_, streams := genStreams(t, p, 4)
	// Per proc: a Send's source instance is produced by an earlier Exec
	// on the same stream, and every Recv destined for a node's input
	// precedes that node's Exec on the same stream.
	for pr, stream := range streams.PerProc {
		execAt := map[mdg.NodeID]int{}
		for i, in := range stream {
			if e, ok := in.(Exec); ok {
				execAt[e.Node] = i
			}
		}
		for i, in := range stream {
			switch v := in.(type) {
			case Recv:
				for node, pos := range execAt {
					for _, input := range p.Specs[node].Inputs {
						if Instance(input, node) == v.DstInstance && pos < i {
							t.Fatalf("proc %d: recv into %q at %d after consumer exec at %d",
								pr, v.DstInstance, i, pos)
						}
					}
				}
			case Send:
				found := false
				for j := 0; j < i; j++ {
					if e, ok := stream[j].(Exec); ok {
						if Instance(p.Specs[e.Node].Output, e.Node) == v.SrcInstance {
							found = true
						}
					}
				}
				if !found {
					t.Fatalf("proc %d: send at %d from %q before producing exec", pr, i, v.SrcInstance)
				}
			}
		}
	}
}

func TestStatsCounts(t *testing.T) {
	p := addProgram(t)
	_, streams := genStreams(t, p, 4)
	st := streams.Stats()
	if st.Execs != 6 { // 3 real nodes × 2 procs each
		t.Fatalf("execs = %d, want 6", st.Execs)
	}
	if st.Sends != st.Recvs {
		t.Fatalf("sends %d != recvs %d", st.Sends, st.Recvs)
	}
	if st.Sends+st.Moves == 0 {
		t.Fatal("expected some data movement")
	}
	// Total moved bytes = sum over redistributions of the array size:
	// A (8x8x8B) + B = 1024 B.
	if st.NetworkBytes+st.LocalBytes != 2*8*8*8 {
		t.Fatalf("moved %d bytes, want %d", st.NetworkBytes+st.LocalBytes, 2*8*8*8)
	}
}

func TestGenerateMismatchedSchedule(t *testing.T) {
	p := addProgram(t)
	s := &sched.Schedule{ProcsTotal: 4, Entries: make([]sched.Entry, 2), Alloc: []int{1, 1}}
	if _, err := Generate(p, s); err == nil {
		t.Fatal("want node-count mismatch error")
	}
}

func TestGenerateDummyNodesSilent(t *testing.T) {
	p := addProgram(t)
	_, streams := genStreams(t, p, 4)
	// Dummy START/STOP produce no instructions: count execs per node.
	for _, stream := range streams.PerProc {
		for _, in := range stream {
			if e, ok := in.(Exec); ok {
				if p.Specs[e.Node].Kernel.Op == kernels.OpNone {
					t.Fatalf("dummy node %d got an Exec", e.Node)
				}
			}
		}
	}
}

func TestRectHelpers(t *testing.T) {
	r := Rect{R0: 1, R1: 3, C0: 0, C1: 4}
	if r.Empty() || r.Bytes() != 2*4*8 {
		t.Fatalf("rect = %+v bytes %d", r, r.Bytes())
	}
	e := Rect{R0: 2, R1: 2, C0: 0, C1: 4}
	if !e.Empty() || e.Bytes() != 0 {
		t.Fatal("empty rect misreported")
	}
	if Instance("A", 3) != "A@3" {
		t.Fatalf("Instance = %q", Instance("A", 3))
	}
}

func TestGroupDist(t *testing.T) {
	d, err := GroupDist(prog.Array{Name: "A", Rows: 8, Cols: 4}, dist.ByCol, []int{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if d.Axis != dist.ByCol || len(d.Procs) != 2 {
		t.Fatalf("dist = %+v", d)
	}
	if _, err := GroupDist(prog.Array{Rows: 8, Cols: 4}, dist.ByRow, nil); err == nil {
		t.Fatal("want error for empty group")
	}
}
