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

// Strassen builds Strassen's matrix multiplication of Figure 6 (right)
// for n×n matrices (n even): quadrant initializations, the ten pre-adds
// S1..S5/T1..T5, the seven half-size multiplies M1..M7, and the eight
// post-adds assembling C11, C12, C21, C22. All nodes distribute by rows
// (1D transfers), matching the paper. The conceptual operands are
// A = [A11 A12; A21 A22], B likewise, generated by AElem/BElem below.
func Strassen(n int, src machine.LoopSource) (*prog.Program, error) {
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("programs: Strassen needs an even size, got %d", n)
	}
	h := n / 2
	b := prog.NewBuilder(fmt.Sprintf("strassen-%dx%d", n, n))

	initK := func(src func(i, j0 int, row []float64), r0, c0 int) kernels.Kernel {
		return kernels.Kernel{Op: kernels.OpInit, M: h, N: h,
			Init: func(i, j0 int, row []float64) { src(r0+i, c0+j0, row) }}
	}
	mulK := kernels.Kernel{Op: kernels.OpMul, M: h, N: h, K: h}
	addK := kernels.Kernel{Op: kernels.OpAdd, M: h, N: h}
	subK := kernels.Kernel{Op: kernels.OpSub, M: h, N: h}

	lpInit, err := loop(src, fmt.Sprintf("Matrix Init (%dx%d)", h, h), initK(aRow, 0, 0))
	if err != nil {
		return nil, err
	}
	lpMul, err := loop(src, fmt.Sprintf("Matrix Multiply (%dx%d)", h, h), mulK)
	if err != nil {
		return nil, err
	}
	lpAdd, err := loop(src, fmt.Sprintf("Matrix Addition (%dx%d)", h, h), addK)
	if err != nil {
		return nil, err
	}

	add := func(name string, spec prog.NodeSpec, lp costmodel.LoopParams) {
		spec.Axis = dist.ByRow
		b.AddNode(name, spec, lp)
	}

	// Quadrant initializations.
	for _, q := range []struct {
		name   string
		src    func(i, j0 int, row []float64)
		r0, c0 int
	}{
		{"A11", aRow, 0, 0}, {"A12", aRow, 0, h}, {"A21", aRow, h, 0}, {"A22", aRow, h, h},
		{"B11", bRow, 0, 0}, {"B12", bRow, 0, h}, {"B21", bRow, h, 0}, {"B22", bRow, h, h},
	} {
		add("init_"+q.name, prog.NodeSpec{Kernel: initK(q.src, q.r0, q.c0), Output: q.name}, lpInit)
	}

	// Pre-additions.
	pre := []struct {
		name string
		op   kernels.Kernel
		a, b string
	}{
		{"S1", addK, "A11", "A22"}, // M1 left
		{"T1", addK, "B11", "B22"}, // M1 right
		{"S2", addK, "A21", "A22"}, // M2 left
		{"T3", subK, "B12", "B22"}, // M3 right
		{"T4", subK, "B21", "B11"}, // M4 right
		{"S5", addK, "A11", "A12"}, // M5 left
		{"S6", subK, "A21", "A11"}, // M6 left
		{"T6", addK, "B11", "B12"}, // M6 right
		{"S7", subK, "A12", "A22"}, // M7 left
		{"T7", addK, "B21", "B22"}, // M7 right
	}
	for _, p := range pre {
		add(p.name, prog.NodeSpec{Kernel: p.op, Inputs: []string{p.a, p.b}, Output: p.name}, lpAdd)
	}

	// The seven products.
	muls := []struct {
		name string
		a, b string
	}{
		{"M1", "S1", "T1"},
		{"M2", "S2", "B11"},
		{"M3", "A11", "T3"},
		{"M4", "A22", "T4"},
		{"M5", "S5", "B22"},
		{"M6", "S6", "T6"},
		{"M7", "S7", "T7"},
	}
	for _, m := range muls {
		add(m.name, prog.NodeSpec{Kernel: mulK, Inputs: []string{m.a, m.b}, Output: m.name}, lpMul)
	}

	// Post-additions:
	// C11 = M1 + M4 - M5 + M7; C12 = M3 + M5; C21 = M2 + M4;
	// C22 = M1 - M2 + M3 + M6.
	post := []struct {
		name string
		op   kernels.Kernel
		a, b string
	}{
		{"U1", addK, "M1", "M4"},  // M1+M4
		{"U2", subK, "U1", "M5"},  // M1+M4-M5
		{"C11", addK, "U2", "M7"}, // +M7
		{"C12", addK, "M3", "M5"},
		{"C21", addK, "M2", "M4"},
		{"U3", subK, "M1", "M2"},  // M1-M2
		{"U4", addK, "U3", "M3"},  // +M3
		{"C22", addK, "U4", "M6"}, // +M6
	}
	for _, p := range post {
		add(p.name, prog.NodeSpec{Kernel: p.op, Inputs: []string{p.a, p.b}, Output: p.name}, lpAdd)
	}
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
