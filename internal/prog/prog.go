// Package prog represents executable MDG programs: the binding between
// MDG nodes and the kernels, arrays and data distributions they operate
// on. It is the layer the paper's Step 1 (MDG identification) hands to
// Steps 3-5 (allocation, scheduling, code generation).
//
// A Program owns an MDG whose nodes carry fitted Amdahl parameters, plus a
// NodeSpec per node naming the kernel, its input arrays, its output array
// and the distribution axis the node uses. Builder derives the MDG edges
// mechanically from producer/consumer relationships: an edge m→j carries
// one Transfer per consumed array, classified 1D when producer and
// consumer distribute along the same axis and 2D otherwise (Figure 4).
//
// ReferenceRun executes the whole program sequentially — the verification
// oracle every simulated MPMD/SPMD run is checked against.
package prog

import (
	"fmt"

	"paradigm/internal/costmodel"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/matrix"
	"paradigm/internal/mdg"
)

// Array names one matrix flowing between nodes.
type Array struct {
	Name       string
	Rows, Cols int
}

// Bytes is the array's size in bytes.
func (a Array) Bytes() int { return a.Rows * a.Cols * dist.ElemBytes }

// NodeSpec binds one MDG node to its computation.
type NodeSpec struct {
	// Kernel is the loop nest; OpNone for dummy START/STOP nodes.
	Kernel kernels.Kernel
	// Inputs are consumed array names in kernel operand order.
	Inputs []string
	// Output is the produced array name; empty for OpNone.
	Output string
	// Axis is the blocked distribution axis this node uses for its
	// output and its view of the inputs.
	Axis dist.Axis
}

// Program is a complete schedulable program.
type Program struct {
	Name   string
	G      *mdg.Graph
	Specs  []NodeSpec // indexed by NodeID
	Arrays map[string]Array

	producer map[string]mdg.NodeID
}

// Producer returns the node producing the named array.
func (p *Program) Producer(name string) (mdg.NodeID, bool) {
	id, ok := p.producer[name]
	return id, ok
}

// Builder incrementally assembles a Program.
type Builder struct {
	name     string
	g        mdg.Graph
	specs    []NodeSpec
	arrays   map[string]Array
	producer map[string]mdg.NodeID
	err      error
}

// NewBuilder starts a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:     name,
		arrays:   map[string]Array{},
		producer: map[string]mdg.NodeID{},
	}
}

func (b *Builder) fail(format string, args ...interface{}) mdg.NodeID {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return -1
}

// AddNode appends a computation node. name labels the MDG node; lp are the
// fitted Amdahl parameters for the node's loop (from calibration). The
// output array is registered with the kernel's output shape. Errors are
// deferred to Finish.
func (b *Builder) AddNode(name string, spec NodeSpec, lp costmodel.LoopParams) mdg.NodeID {
	if b.err != nil {
		return -1
	}
	if err := spec.Kernel.Validate(); err != nil {
		return b.fail("prog: node %s: %v", name, err)
	}
	if spec.Kernel.Op == kernels.OpNone {
		return b.fail("prog: node %s: OpNone nodes are added automatically", name)
	}
	if got, want := len(spec.Inputs), spec.Kernel.NumInputs(); got != want {
		return b.fail("prog: node %s: %d inputs, kernel needs %d", name, got, want)
	}
	for idx, in := range spec.Inputs {
		arr, ok := b.arrays[in]
		if !ok {
			return b.fail("prog: node %s consumes undefined array %q (define producers first)", name, in)
		}
		wr, wc := spec.Kernel.InputShape(idx)
		if arr.Rows != wr || arr.Cols != wc {
			return b.fail("prog: node %s input %q is %dx%d, kernel wants %dx%d",
				name, in, arr.Rows, arr.Cols, wr, wc)
		}
	}
	if spec.Output == "" {
		return b.fail("prog: node %s: missing output array name", name)
	}
	if _, dup := b.producer[spec.Output]; dup {
		return b.fail("prog: array %q produced twice", spec.Output)
	}
	if lp.Tau < 0 || lp.Alpha < 0 || lp.Alpha > 1 {
		return b.fail("prog: node %s: invalid Amdahl parameters %+v", name, lp)
	}
	// Keep the kernel's cost layout consistent with the node's data
	// layout so calibration and simulation always agree.
	spec.Kernel.Grid = spec.Axis == dist.ByGrid
	id := b.g.AddNode(mdg.Node{Name: name, Alpha: lp.Alpha, Tau: lp.Tau, Meta: spec.Kernel.Op.String()})
	or, oc := spec.Kernel.OutputShape()
	b.arrays[spec.Output] = Array{Name: spec.Output, Rows: or, Cols: oc}
	b.producer[spec.Output] = id
	b.specs = append(b.specs, spec)
	return id
}

// Finish derives the MDG edges from the producer/consumer relationships,
// augments START/STOP, and validates the result.
func (b *Builder) Finish() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.specs) == 0 {
		return nil, fmt.Errorf("prog: empty program %q", b.name)
	}
	for id, spec := range b.specs {
		seen := map[string]bool{}
		for _, in := range spec.Inputs {
			if seen[in] {
				// The same array feeding two operand slots is moved once;
				// the edge carries one transfer per distinct array
				// (matching the generated MPMD code).
				continue
			}
			seen[in] = true
			src := b.producer[in]
			arr := b.arrays[in]
			kind := dist.KindBetween(b.specs[src].Axis, spec.Axis)
			b.g.AddEdge(src, mdg.NodeID(id), mdg.Transfer{Bytes: arr.Bytes(), Kind: kind})
		}
	}
	if _, _, err := b.g.EnsureStartStop(); err != nil {
		return nil, err
	}
	// Dummy nodes appended by EnsureStartStop get OpNone specs.
	for len(b.specs) < b.g.NumNodes() {
		b.specs = append(b.specs, NodeSpec{Kernel: kernels.Kernel{Op: kernels.OpNone}})
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return &Program{
		Name:     b.name,
		G:        &b.g,
		Specs:    b.specs,
		Arrays:   b.arrays,
		producer: b.producer,
	}, nil
}

// ReferenceRun executes the program sequentially in topological order,
// returning every array's final value. This is the numerical oracle for
// simulated parallel runs.
func (p *Program) ReferenceRun() (map[string]*matrix.Matrix, error) {
	order, err := p.G.TopoOrder()
	if err != nil {
		return nil, err
	}
	vals := map[string]*matrix.Matrix{}
	for _, v := range order {
		spec := p.Specs[v]
		if spec.Kernel.Op == kernels.OpNone {
			continue
		}
		inputs := make([]*matrix.Matrix, 0, len(spec.Inputs))
		for _, in := range spec.Inputs {
			m, ok := vals[in]
			if !ok {
				return nil, fmt.Errorf("prog: node %d consumes %q before production", v, in)
			}
			inputs = append(inputs, m)
		}
		arr := p.Arrays[spec.Output]
		out := matrix.New(arr.Rows, arr.Cols)
		if err := spec.Kernel.Execute(out, inputs...); err != nil {
			return nil, fmt.Errorf("prog: node %d (%s): %w", v, p.G.Nodes[v].Name, err)
		}
		vals[spec.Output] = out
	}
	return vals, nil
}
