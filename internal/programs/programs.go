// Package programs builds the paper's test programs as executable MDG
// programs (Figure 6), plus the Section 1.2 motivating example (Figure 1)
// and a synthetic pipeline generator for stress tests.
//
// Both test programs use the three loop types of Section 6 — Matrix
// Initialization, Matrix Multiplication and Matrix Addition (plus
// subtraction, an addition-cost loop) — and all their data transfers are
// of the 1D type, as the paper notes, because every node distributes by
// rows.
package programs

import (
	"fmt"
	"math"

	"paradigm/internal/costmodel"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/matrix"
	"paradigm/internal/mdg"
	"paradigm/internal/prog"
)

// FigureOneMDG reproduces the Section 1.2 example: three nodes, no data
// transfer costs, processing curves such that on a 4-processor system the
// naive all-processors schedule takes 15.6 s while the mixed schedule
// (N1 on 4, then N2 ∥ N3 on 2 each) takes 14.3 s.
func FigureOneMDG() *mdg.Graph {
	var g mdg.Graph
	// t1(4) = 2.6 s with α = 0.05.
	n1 := g.AddNode(mdg.Node{Name: "N1", Alpha: 0.05, Tau: 2.6 / (0.05 + 0.95/4)})
	// t2(4) = 6.5 s, t2(2) = 11.7 s -> α = 1/17, τ = 6.5/(α+(1-α)/4).
	alpha := 1.0 / 17.0
	tau := 6.5 / (alpha + (1-alpha)/4)
	n2 := g.AddNode(mdg.Node{Name: "N2", Alpha: alpha, Tau: tau})
	n3 := g.AddNode(mdg.Node{Name: "N3", Alpha: alpha, Tau: tau})
	g.AddEdge(n1, n2)
	g.AddEdge(n1, n3)
	if _, _, err := g.EnsureStartStop(); err != nil {
		panic(err) // structurally impossible
	}
	return &g
}

// loop returns calibrated Amdahl parameters for a kernel, naming it for
// the Table 1 printer.
func loop(src machine.LoopSource, name string, k kernels.Kernel) (costmodel.LoopParams, error) {
	return src.Loop(name, k)
}

// ComplexMatMul builds the complex matrix multiplication program of
// Figure 6 (left): C = A·B over complex n×n matrices held as separate
// real and imaginary parts. Ten computation nodes: four initializations,
// four real multiplies, one subtraction (Cr = ArBr − AiBi) and one
// addition (Ci = ArBi + AiBr). Every node distributes by rows, so all
// transfers are 1D.
func ComplexMatMul(n int, src machine.LoopSource) (*prog.Program, error) {
	return ComplexMatMulLayout(n, src, false)
}

// ComplexMatMulLayout builds the complex matrix multiply with the four
// multiply nodes optionally on grid (blocked-2D) distributions — the
// paper's general-distribution extension, evaluated by experiment E12.
// Init and combine nodes stay row-distributed, so the grid variant
// exercises the L2G and G2L transfer kinds.
func ComplexMatMulLayout(n int, src machine.LoopSource, gridMuls bool) (*prog.Program, error) {
	if n < 1 {
		return nil, fmt.Errorf("programs: matrix size %d", n)
	}
	name := fmt.Sprintf("complex-matmul-%dx%d", n, n)
	if gridMuls {
		name += "-grid"
	}
	b := prog.NewBuilder(name)
	initK := func(phase float64) kernels.Kernel {
		return kernels.Kernel{Op: kernels.OpInit, M: n, N: n,
			Init: func(i, j0 int, row []float64) { cmmRow(n, phase, i, j0, row) }}
	}
	mulK := kernels.Kernel{Op: kernels.OpMul, M: n, N: n, K: n}
	addK := kernels.Kernel{Op: kernels.OpAdd, M: n, N: n}
	subK := kernels.Kernel{Op: kernels.OpSub, M: n, N: n}

	lpInit, err := loop(src, fmt.Sprintf("Matrix Init (%dx%d)", n, n), initK(0))
	if err != nil {
		return nil, err
	}
	mulAxis := dist.ByRow
	mulCalName := fmt.Sprintf("Matrix Multiply (%dx%d)", n, n)
	mulCalK := mulK
	if gridMuls {
		mulAxis = dist.ByGrid
		mulCalName = fmt.Sprintf("Matrix Multiply grid (%dx%d)", n, n)
		mulCalK.Grid = true
	}
	lpMul, err := loop(src, mulCalName, mulCalK)
	if err != nil {
		return nil, err
	}
	lpAdd, err := loop(src, fmt.Sprintf("Matrix Addition (%dx%d)", n, n), addK)
	if err != nil {
		return nil, err
	}

	add := func(name string, spec prog.NodeSpec, lp costmodel.LoopParams) {
		if spec.Axis != dist.ByGrid {
			spec.Axis = dist.ByRow
		}
		b.AddNode(name, spec, lp)
	}
	add("init_Ar", prog.NodeSpec{Kernel: initK(0.0), Output: "Ar"}, lpInit)
	add("init_Ai", prog.NodeSpec{Kernel: initK(0.7), Output: "Ai"}, lpInit)
	add("init_Br", prog.NodeSpec{Kernel: initK(1.4), Output: "Br"}, lpInit)
	add("init_Bi", prog.NodeSpec{Kernel: initK(2.1), Output: "Bi"}, lpInit)
	add("mul_ArBr", prog.NodeSpec{Kernel: mulK, Inputs: []string{"Ar", "Br"}, Output: "ArBr", Axis: mulAxis}, lpMul)
	add("mul_AiBi", prog.NodeSpec{Kernel: mulK, Inputs: []string{"Ai", "Bi"}, Output: "AiBi", Axis: mulAxis}, lpMul)
	add("mul_ArBi", prog.NodeSpec{Kernel: mulK, Inputs: []string{"Ar", "Bi"}, Output: "ArBi", Axis: mulAxis}, lpMul)
	add("mul_AiBr", prog.NodeSpec{Kernel: mulK, Inputs: []string{"Ai", "Br"}, Output: "AiBr", Axis: mulAxis}, lpMul)
	add("sub_Cr", prog.NodeSpec{Kernel: subK, Inputs: []string{"ArBr", "AiBi"}, Output: "Cr"}, lpAdd)
	add("add_Ci", prog.NodeSpec{Kernel: addK, Inputs: []string{"ArBi", "AiBr"}, Output: "Ci"}, lpAdd)
	return b.Finish()
}

// cmmRow is the generator of CMM's four inputs, which differ in phase:
// element (i, j) of the n×n matrix is sin(phase + 2π·(i·n + j)/n²). The
// index i·n + j is counted up in a float, which is exact below 2⁵³.
func cmmRow(n int, phase float64, i, j0 int, row []float64) {
	idx, cells := float64(i*n+j0), float64(n*n)
	for k := range row {
		row[k] = phase + idx/cells*2*math.Pi
		idx++
	}
	matrix.Sin(row, row)
}

// AElem and BElem generate the conceptual Strassen operands: smooth,
// deterministic, non-symmetric functions so quadrant mix-ups change the
// result. The programs generate them with aRow and bRow, which perform
// the same operations a row at a time.
func AElem(i, j int) float64 { return math.Sin(float64(3*i+2*j)/17.0) + 0.01*float64(i-j) }

// BElem generates the right operand.
func BElem(i, j int) float64 { return math.Cos(float64(2*i-j)/13.0) - 0.02*float64(i+j) }

// aRow fills row with AElem(i, j0+k).
func aRow(i, j0 int, row []float64) {
	for k := range row {
		row[k] = float64(3*i+2*(j0+k)) / 17.0
	}
	matrix.Sin(row, row)
	for k := range row {
		row[k] += 0.01 * float64(i-(j0+k))
	}
}

// bRow fills row with BElem(i, j0+k).
func bRow(i, j0 int, row []float64) {
	for k := range row {
		row[k] = float64(2*i-(j0+k)) / 13.0
	}
	matrix.Cos(row, row)
	for k := range row {
		row[k] -= 0.02 * float64(i+(j0+k))
	}
}

// SyntheticPipeline builds a width×depth grid of matrix-multiply stages
// over an initialized matrix — the signal-processing-style workload class
// the paper's introduction motivates (independent filter branches expose
// functional parallelism; each stage is data parallel). Branch k applies
// `depth` chained multiplies by the source operator; a final reduction
// tree sums the branch outputs. The source entries are scaled so chained
// products stay O(1).
func SyntheticPipeline(n, width, depth int, src machine.LoopSource) (*prog.Program, error) {
	if n < 1 || width < 1 || depth < 1 {
		return nil, fmt.Errorf("programs: invalid pipeline %dx%d over %d", width, depth, n)
	}
	b := prog.NewBuilder(fmt.Sprintf("pipeline-w%d-d%d-%dx%d", width, depth, n, n))
	initK := kernels.Kernel{Op: kernels.OpInit, M: n, N: n,
		Init: kernels.Elementwise(func(i, j int) float64 { return float64(i+j+1) / float64(2*n*n) })}
	mulK := kernels.Kernel{Op: kernels.OpMul, M: n, N: n, K: n}
	addK := kernels.Kernel{Op: kernels.OpAdd, M: n, N: n}
	lpInit, err := loop(src, fmt.Sprintf("Matrix Init (%dx%d)", n, n), initK)
	if err != nil {
		return nil, err
	}
	lpMul, err := loop(src, fmt.Sprintf("Matrix Multiply (%dx%d)", n, n), mulK)
	if err != nil {
		return nil, err
	}
	lpAdd, err := loop(src, fmt.Sprintf("Matrix Addition (%dx%d)", n, n), addK)
	if err != nil {
		return nil, err
	}
	add := func(name string, spec prog.NodeSpec, lp costmodel.LoopParams) {
		spec.Axis = dist.ByRow
		b.AddNode(name, spec, lp)
	}
	add("source", prog.NodeSpec{Kernel: initK, Output: "src"}, lpInit)
	frontier := make([]string, width)
	for w := 0; w < width; w++ {
		prev := "src"
		for d := 0; d < depth; d++ {
			out := fmt.Sprintf("b%d_s%d", w, d)
			add(out, prog.NodeSpec{Kernel: mulK, Inputs: []string{prev, "src"}, Output: out}, lpMul)
			prev = out
		}
		frontier[w] = prev
	}
	// Reduction tree over branch outputs.
	level := 0
	for len(frontier) > 1 {
		var next []string
		for i := 0; i+1 < len(frontier); i += 2 {
			out := fmt.Sprintf("r%d_%d", level, i/2)
			add(out, prog.NodeSpec{Kernel: addK, Inputs: []string{frontier[i], frontier[i+1]}, Output: out}, lpAdd)
			next = append(next, out)
		}
		if len(frontier)%2 == 1 {
			next = append(next, frontier[len(frontier)-1])
		}
		frontier = next
		level++
	}
	return b.Finish()
}
