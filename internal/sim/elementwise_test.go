package sim

import (
	"math"
	"testing"

	"paradigm/internal/codegen"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/matrix"
	"paradigm/internal/mdg"
	"paradigm/internal/par"
	"paradigm/internal/prog"
	"paradigm/internal/sched"
)

// layoutsProgram builds three n×n inputs, one in each layout — A by
// rows, B by columns, G on a grid — and seven element-wise nodes that
// read them across layouts: D = A + B by rows, E = G − A by columns,
// F = B + G on a grid, H = D − E by rows, J = B − A and L = A + B by
// columns, and M = B + J by rows. layoutAllocs puts J and L on as many
// processors as B, so that the rows where two views meet lie end to end
// in the output block and in one operand's source but not the other's,
// and in M's two operand sources but not in its output block. At
// n = fannedOutMul the inits are at fanOutWork, so under a wide pool the
// run has an executor and the element-wise barriers, which are below it,
// are queued on it.
func layoutsProgram(t *testing.T, n int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("layouts")
	for _, in := range []struct {
		name, out string
		axis      dist.Axis
		f         func(i, j int) float64
	}{
		{"initA", "A", dist.ByRow, func(i, j int) float64 { return float64(i*3+j) / 7 }},
		{"initB", "B", dist.ByCol, func(i, j int) float64 { return float64(i-2*j) / 5 }},
		{"initG", "G", dist.ByGrid, func(i, j int) float64 { return math.Sin(float64(i+5*j) / 11) }},
	} {
		b.AddNode(in.name, prog.NodeSpec{
			Kernel: kernels.Kernel{Op: kernels.OpInit, M: n, N: n, Init: kernels.Elementwise(in.f)},
			Output: in.out, Axis: in.axis,
		}, lp(0.05, 0.002))
	}
	for _, e := range []struct {
		name string
		op   kernels.Op
		a, b string
		out  string
		axis dist.Axis
	}{
		{"addD", kernels.OpAdd, "A", "B", "D", dist.ByRow},
		{"subE", kernels.OpSub, "G", "A", "E", dist.ByCol},
		{"addF", kernels.OpAdd, "B", "G", "F", dist.ByGrid},
		{"subH", kernels.OpSub, "D", "E", "H", dist.ByRow},
		{"subJ", kernels.OpSub, "B", "A", "J", dist.ByCol},
		{"addL", kernels.OpAdd, "A", "B", "L", dist.ByCol},
		{"addM", kernels.OpAdd, "B", "J", "M", dist.ByRow},
	} {
		b.AddNode(e.name, prog.NodeSpec{
			Kernel: kernels.Kernel{Op: e.op, M: n, N: n},
			Inputs: []string{e.a, e.b}, Output: e.out, Axis: e.axis,
		}, lp(0.06, 0.004))
	}
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// layoutsStreams schedules layoutsProgram on 8 processors with each
// node's processor count from alloc (by node name; START and STOP get
// one) and generates its streams.
func layoutsStreams(t *testing.T, p *prog.Program, alloc map[string]int) *codegen.Streams {
	t.Helper()
	allocv := make([]int, p.G.NumNodes())
	for id := range allocv {
		allocv[id] = 1
		if q, ok := alloc[p.G.Nodes[id].Name]; ok {
			allocv[id] = q
		}
	}
	s, err := sched.PSA(p.G, cm5Fit, allocv, 8, sched.LowestEST)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := codegen.Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	return streams
}

// elementwiseReads names what the element-wise barriers of a finished
// run read: "row", "col" or "grid" for an operand block that holds views
// of blocks in that layout, and "mixed" for a member whose two operand
// blocks are split into parts differently.
func elementwiseReads(p *prog.Program, streams *codegen.Streams, res *Result) map[string]bool {
	layout := map[dist.Axis]string{dist.ByRow: "row", dist.ByCol: "col", dist.ByGrid: "grid"}
	seen := map[string]bool{}
	for node, spec := range p.Specs {
		if op := spec.Kernel.Op; op != kernels.OpAdd && op != kernels.OpSub {
			continue
		}
		for _, proc := range streams.Groups[node] {
			var parts [2][]recvView
			for operand, in := range spec.Inputs {
				b := res.stores[proc][streams.Operands[node][operand]]
				if b == nil || b.rect.Empty() {
					continue
				}
				parts[operand] = b.views
				producer, _ := p.Producer(in)
				seen[layout[p.Specs[producer].Axis]] = true
			}
			if len(parts[0]) != len(parts[1]) {
				seen["mixed"] = true
				continue
			}
			for i := range parts[0] {
				if parts[0][i].rect != parts[1][i].rect {
					seen["mixed"] = true
				}
			}
		}
	}
	return seen
}

// layoutAllocs are processor counts for layoutsProgram on 8 processors:
// producers on fewer processors than their readers, so that operands
// arrive as views of row strips, column strips and grid blocks; an
// uneven grid; and everything on all 8, where a reader in its producer's
// layout reads one view of a whole block, moved locally.
var layoutAllocs = []map[string]int{
	{"initA": 2, "initB": 4, "initG": 4, "addD": 8, "subE": 8, "addF": 6, "subH": 8, "subJ": 4, "addL": 4, "addM": 8},
	{"initA": 4, "initB": 2, "initG": 6, "addD": 3, "subE": 5, "addF": 8, "subH": 7, "subJ": 2, "addL": 2, "addM": 3},
	{"initA": 8, "initB": 8, "initG": 8, "addD": 8, "subE": 8, "addF": 8, "subH": 8, "subJ": 8, "addL": 8, "addM": 8},
}

// TestSimDataPlaneElementwiseReadsInPlace: an add or a subtract reads
// its operands where they lie — views of row strips, column strips and
// grid blocks, and two operands split into parts differently — and gives
// the sequential reference's bits, at pool widths 1 and 8 alike. Every one of layoutsProgram's element-wise
// barriers takes the in-place path on every schedule, and together the
// schedules reach every kind of read.
func TestSimDataPlaneElementwiseReadsInPlace(t *testing.T) {
	p := layoutsProgram(t, fannedOutMul)
	reached := map[string]bool{}
	for i, alloc := range layoutAllocs {
		streams := layoutsStreams(t, p, alloc)
		mp := machine.CM5(8)
		before := inPlaceBarriers.Load()
		one := observe(t, "1", p, streams, mp, nil)
		inPlace := inPlaceBarriers.Load() - before
		eight := observe(t, "8", p, streams, mp, nil)
		requireSameOutcome(t, one, eight)
		if len(one.arrays) != len(p.Arrays) {
			t.Fatalf("schedule %d: gathered %d of %d arrays", i, len(one.arrays), len(p.Arrays))
		}
		requireReferenceBits(t, p, eight)
		if inPlace != 7 {
			t.Fatalf("schedule %d: %d of 7 element-wise barriers read in place", i, inPlace)
		}
		res, err := Run(p, streams, mp)
		if err != nil {
			t.Fatal(err)
		}
		for kind := range elementwiseReads(p, streams, res) {
			reached[kind] = true
		}
	}
	for _, kind := range []string{"row", "col", "grid", "mixed"} {
		if !reached[kind] {
			t.Errorf("no schedule has an element-wise barrier read %s blocks (reached %v)", kind, reached)
		}
	}
}

// TestSimDataPlaneElementwiseFallback: an operand block whose views
// leave a hole or overlap is read into scratch first, where a hole reads
// +0 and the later of two overlapping views wins, and only that barrier
// leaves the in-place path. D = A + B by rows reads B as views of column
// strips: one receive into it is cut short (a hole), or A's bits are
// moved over part of it after its receives (an overlap). D must be A
// plus B so edited, bit for bit, at pool widths 1 and 8, and every other
// array the reference's.
func TestSimDataPlaneElementwiseFallback(t *testing.T) {
	p := layoutsProgram(t, fannedOutMul)
	ref, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	addD, _ := p.Producer("D")
	aInst := int32(mustProducer(t, p, "A"))
	for _, tc := range []struct {
		name string
		// edit changes streams so that the block of B that addD reads on
		// some processor is no longer partitioned by its views, and
		// returns B as D then reads it.
		edit func(t *testing.T, streams *codegen.Streams, clean *Result) *matrix.Matrix
	}{
		{"hole", func(t *testing.T, streams *codegen.Streams, _ *Result) *matrix.Matrix {
			bInst := streams.Operands[addD][1]
			for _, stream := range streams.PerProc {
				for i, in := range stream {
					if in.Op != codegen.Recv || in.Dst != bInst || in.Payload.C1-in.Payload.C0 < 2 {
						continue
					}
					hole := in.Payload
					hole.C0 = (in.Payload.C0 + in.Payload.C1) / 2
					stream[i].Payload.C1 = hole.C0
					b := ref["B"].Clone()
					for r := hole.R0; r < hole.R1; r++ {
						for c := hole.C0; c < hole.C1; c++ {
							b.Set(r, c, 0)
						}
					}
					return b
				}
			}
			t.Fatal("no receive into D's operand B to cut short")
			return nil
		}},
		{"overlap", func(t *testing.T, streams *codegen.Streams, clean *Result) *matrix.Matrix {
			bInst := streams.Operands[addD][1]
			for pr, store := range clean.stores {
				a, b := store[aInst], store[bInst]
				if a == nil || b == nil || a.data == nil || b.views == nil || intersect(a.rect, b.rect).Empty() {
					continue
				}
				over := intersect(a.rect, b.rect)
				over.R1 = over.R0 + (over.R1-over.R0+1)/2
				insert(t, streams, pr, execOf(addD), codegen.Instr{Op: codegen.Move, Payload: over, Src: aInst, Dst: bInst, Block: b.rect})
				want := ref["B"].Clone()
				want.CopyRect(over.R0, over.C0, ref["A"], over.R0, over.R1, over.C0, over.C1)
				return want
			}
			t.Fatal("no processor holds a block of A and a viewed block of D's operand B")
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			streams := layoutsStreams(t, p, layoutAllocs[0])
			mp := machine.CM5(8)
			clean, err := Run(p, streams, mp)
			if err != nil {
				t.Fatal(err)
			}
			b := tc.edit(t, streams, clean)
			d := matrix.New(b.Rows, b.Cols)
			if err := matrix.Add(d, ref["A"], b); err != nil {
				t.Fatal(err)
			}
			want := map[string]*matrix.Matrix{"D": d, "H": matrix.New(d.Rows, d.Cols)}
			if err := matrix.Sub(want["H"], d, ref["E"]); err != nil {
				t.Fatal(err)
			}
			before := inPlaceBarriers.Load()
			one := observe(t, "1", p, streams, mp, nil)
			inPlace := inPlaceBarriers.Load() - before
			eight := observe(t, "8", p, streams, mp, nil)
			requireSameOutcome(t, one, eight)
			if inPlace != 6 {
				t.Fatalf("%d element-wise barriers read in place, want all but D's 6", inPlace)
			}
			for name, bits := range one.arrays {
				m := ref[name]
				if w, ok := want[name]; ok {
					m = w
				}
				for i, v := range m.Data {
					if bits[i] != math.Float64bits(v) {
						t.Fatalf("array %q element %d = %#x, want %#x", name, i, bits[i], math.Float64bits(v))
					}
				}
			}
		})
	}
}

// TestSimDataPlaneCMMTailsReadInPlace: CMM-256 on 64 processors reads
// the operands of its real-part subtract and imaginary-part add where
// they lie, and under a wide pool queues them on the executor its
// products started, so that the two overlap: were either to fall back
// to scratch or to the step loop, the saving would go unnoticed.
func TestSimDataPlaneCMMTailsReadInPlace(t *testing.T) {
	p := cmm(t, 256)
	_, streams := pipeline(t, p, 64)
	t.Setenv(par.EnvWorkers, "8")
	before, inPlaceBefore := tasksQueued.Load(), inPlaceBarriers.Load()
	res, err := Run(p, streams, machine.CM5(64))
	if err != nil {
		t.Fatal(err)
	}
	if inPlace := inPlaceBarriers.Load() - inPlaceBefore; inPlace != 2 {
		t.Fatalf("%d of CMM's 2 element-wise barriers read in place", inPlace)
	}
	if queued := tasksQueued.Load() - before; queued != int64(res.fannedOut+2) {
		t.Fatalf("%d tasks queued, want the %d heavy barriers and both tails", queued, res.fannedOut)
	}
}

// mustProducer is the node producing array.
func mustProducer(t *testing.T, p *prog.Program, array string) mdg.NodeID {
	t.Helper()
	id, ok := p.Producer(array)
	if !ok {
		t.Fatalf("no producer of %q", array)
	}
	return id
}
