package codegen

import (
	"slices"
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
			if in.Op == Exec {
				execAt[in.Node] = i
			}
		}
		for i, in := range stream {
			switch in.Op {
			case Recv:
				for node, pos := range execAt {
					for _, operand := range streams.Operands[node] {
						if operand == in.Dst && pos < i {
							t.Fatalf("proc %d: recv into %q at %d after consumer exec at %d",
								pr, streams.InstanceName(in.Dst), i, pos)
						}
					}
				}
			case Send:
				found := false
				for j := 0; j < i; j++ {
					// A node's output instance has the node's id.
					if stream[j].Op == Exec && int32(stream[j].Node) == in.Src {
						found = true
					}
				}
				if !found {
					t.Fatalf("proc %d: send at %d from %q before producing exec", pr, i, streams.InstanceName(in.Src))
				}
			}
		}
	}
}

// TestStreamsTables: the ids of the generated program mean what the
// tables say. Output instance id = node; a node's operands are its
// inputs at that node; every message is sent once, by a member of its
// source's group, and received once, by a member of its consumer's
// group, with the same payload.
func TestStreamsTables(t *testing.T) {
	for _, p := range []*prog.Program{addProgram(t), gridProgram(t)} {
		_, streams := genStreams(t, p, 4)
		for node, spec := range p.Specs {
			if in := streams.Instances[node]; in.Array != spec.Output || in.Node != mdg.NodeID(node) {
				t.Fatalf("instance %d = %+v, want %s of node %d", node, in, spec.Output, node)
			}
			for k, id := range streams.Operands[node] {
				if in := streams.Instances[id]; in.Array != spec.Inputs[k] || in.Node != mdg.NodeID(node) {
					t.Fatalf("node %d operand %d = %+v, want %s at the node", node, k, in, spec.Inputs[k])
				}
			}
		}
		type end struct {
			proc, peer int
			payload    Rect
		}
		sends, recvs := map[int32][]end{}, map[int32][]end{}
		for pr, stream := range streams.PerProc {
			for _, in := range stream {
				switch in.Op {
				case Send:
					sends[in.Msg] = append(sends[in.Msg], end{pr, int(in.Peer), in.Payload})
				case Recv:
					recvs[in.Msg] = append(recvs[in.Msg], end{int(in.Peer), pr, in.Payload})
				}
			}
		}
		if len(sends) != len(streams.Messages) || len(recvs) != len(streams.Messages) {
			t.Fatalf("%d messages sent, %d received, %d in the table", len(sends), len(recvs), len(streams.Messages))
		}
		for id, m := range streams.Messages {
			s, r := sends[int32(id)], recvs[int32(id)]
			if len(s) != 1 || len(r) != 1 || s[0] != r[0] {
				t.Fatalf("message %s: sends %v, receives %v", streams.Tag(int32(id)), s, r)
			}
			if !slices.Contains(streams.Groups[m.Src], s[0].proc) || !slices.Contains(streams.Groups[m.Consumer], s[0].peer) {
				t.Fatalf("message %s from P%d to P%d", streams.Tag(int32(id)), s[0].proc, s[0].peer)
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
			if in.Op == Exec && p.Specs[in.Node].Kernel.Op == kernels.OpNone {
				t.Fatalf("dummy node %d got an Exec", in.Node)
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
	s := Streams{
		Instances: []Instance{{Array: "A", Node: 3}},
		Messages:  []Message{{Src: 0, Consumer: 5, Index: 2}},
	}
	if s.InstanceName(0) != "A@3" || s.Tag(0) != "A@3->5#2" {
		t.Fatalf("InstanceName = %q, Tag = %q", s.InstanceName(0), s.Tag(0))
	}
}

func TestGroupDist(t *testing.T) {
	d, err := dist.New(8, 4, dist.ByCol, []int{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if d.Axis != dist.ByCol || len(d.Procs) != 2 {
		t.Fatalf("dist = %+v", d)
	}
	if _, err := dist.New(8, 4, dist.ByRow, nil); err == nil {
		t.Fatal("want error for empty group")
	}
}
