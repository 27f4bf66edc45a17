package programs

import (
	"fmt"

	"paradigm/internal/costmodel"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/prog"
)

// StrassenRecursive builds Strassen's multiplication with the
// decomposition applied recursively at the MDG level: every half-size
// product below the cutoff depth expands into its own Strassen subgraph
// of quadrant extractions, pre-additions, seven recursive products and
// post-additions, with a final quadrant assembly. Depth 0 is a single
// multiply node; depth 1 matches the paper's program structure (modulo
// explicit extract/assemble nodes); depth 2 yields a 49-multiply MDG with
// far more functional parallelism — and far more redistribution overhead,
// the trade-off experiment E14 measures.
//
// The conceptual operands are the same AElem/BElem matrices as Strassen's,
// so every depth verifies against the same direct product. n must be
// divisible by 2^depth.
func StrassenRecursive(n, depth int, src machine.LoopSource) (*prog.Program, error) {
	if n < 1 {
		return nil, fmt.Errorf("programs: matrix size %d", n)
	}
	if depth < 0 {
		return nil, fmt.Errorf("programs: negative depth %d", depth)
	}
	if n%(1<<uint(depth)) != 0 {
		return nil, fmt.Errorf("programs: size %d not divisible by 2^%d", n, depth)
	}
	b := prog.NewBuilder(fmt.Sprintf("strassen-rec-%dx%d-d%d", n, n, depth))
	sb := &strassenBuilder{b: b, src: src}

	initA := kernels.Kernel{Op: kernels.OpInit, M: n, N: n, Init: aRow}
	initB := kernels.Kernel{Op: kernels.OpInit, M: n, N: n, Init: bRow}
	lpInit, err := src.Loop(fmt.Sprintf("Matrix Init (%dx%d)", n, n), initA)
	if err != nil {
		return nil, err
	}
	b.AddNode("init_A", prog.NodeSpec{Kernel: initA, Output: "A", Axis: dist.ByRow}, lpInit)
	b.AddNode("init_B", prog.NodeSpec{Kernel: initB, Output: "B", Axis: dist.ByRow}, lpInit)

	if err := sb.multiply("C", "A", "B", n, depth); err != nil {
		return nil, err
	}
	return b.Finish()
}

// strassenBuilder carries naming state through the recursion.
type strassenBuilder struct {
	b    *prog.Builder
	src  machine.LoopSource
	next int
}

func (sb *strassenBuilder) fresh(prefix string) string {
	sb.next++
	return fmt.Sprintf("%s_%d", prefix, sb.next)
}

func (sb *strassenBuilder) lp(name string, k kernels.Kernel) (costmodel.LoopParams, error) {
	return sb.src.Loop(name, k)
}

// node adds a row-distributed node with calibrated parameters.
func (sb *strassenBuilder) node(name string, k kernels.Kernel, inputs []string, output string) error {
	calName := fmt.Sprintf("%s (%dx%d)", k.Op, k.M, k.N)
	if k.Op == kernels.OpMul {
		calName = fmt.Sprintf("Matrix Multiply (%dx%d)", k.M, k.N)
	}
	costK := k
	if costK.Op == kernels.OpSub {
		costK.Op = kernels.OpAdd // subtraction costs what addition costs
		calName = fmt.Sprintf("add (%dx%d)", k.M, k.N)
	}
	lp, err := sb.lp(calName, costK)
	if err != nil {
		return err
	}
	sb.b.AddNode(name, prog.NodeSpec{Kernel: k, Inputs: inputs, Output: output, Axis: dist.ByRow}, lp)
	return nil
}

// multiply emits nodes computing out = a·b for size×size operands,
// recursing depth more levels.
func (sb *strassenBuilder) multiply(out, a, b string, size, depth int) error {
	if depth == 0 {
		return sb.node("mul_"+out,
			kernels.Kernel{Op: kernels.OpMul, M: size, N: size, K: size},
			[]string{a, b}, out)
	}
	h := size / 2

	// Quadrant extraction.
	quads := map[string]string{}
	for _, src := range []string{a, b} {
		for qi, anchor := range [][2]int{{0, 0}, {0, h}, {h, 0}, {h, h}} {
			name := sb.fresh(fmt.Sprintf("%s_q%d", src, qi+1))
			k := kernels.Extract(h, h, size, size, anchor[0], anchor[1])
			if err := sb.node("ext_"+name, k, []string{src}, name); err != nil {
				return err
			}
			quads[fmt.Sprintf("%s%d", src, qi+1)] = name
		}
	}
	a11, a12, a21, a22 := quads[a+"1"], quads[a+"2"], quads[a+"3"], quads[a+"4"]
	b11, b12, b21, b22 := quads[b+"1"], quads[b+"2"], quads[b+"3"], quads[b+"4"]

	addK := kernels.Kernel{Op: kernels.OpAdd, M: h, N: h}
	subK := kernels.Kernel{Op: kernels.OpSub, M: h, N: h}
	binary := func(k kernels.Kernel, x, y string) (string, error) {
		name := sb.fresh("t")
		label := "add_"
		if k.Op == kernels.OpSub {
			label = "sub_"
		}
		if err := sb.node(label+name, k, []string{x, y}, name); err != nil {
			return "", err
		}
		return name, nil
	}

	// Pre-additions (Winograd-free classical Strassen).
	s1, err := binary(addK, a11, a22)
	if err != nil {
		return err
	}
	t1, err := binary(addK, b11, b22)
	if err != nil {
		return err
	}
	s2, err := binary(addK, a21, a22)
	if err != nil {
		return err
	}
	t3, err := binary(subK, b12, b22)
	if err != nil {
		return err
	}
	t4, err := binary(subK, b21, b11)
	if err != nil {
		return err
	}
	s5, err := binary(addK, a11, a12)
	if err != nil {
		return err
	}
	s6, err := binary(subK, a21, a11)
	if err != nil {
		return err
	}
	t6, err := binary(addK, b11, b12)
	if err != nil {
		return err
	}
	s7, err := binary(subK, a12, a22)
	if err != nil {
		return err
	}
	t7, err := binary(addK, b21, b22)
	if err != nil {
		return err
	}

	// The seven products, recursively.
	ms := make([]string, 7)
	for i, pair := range [][2]string{
		{s1, t1}, {s2, b11}, {a11, t3}, {a22, t4}, {s5, b22}, {s6, t6}, {s7, t7},
	} {
		ms[i] = sb.fresh("M")
		if err := sb.multiply(ms[i], pair[0], pair[1], h, depth-1); err != nil {
			return err
		}
	}

	// Post-additions: C11 = M1+M4-M5+M7; C12 = M3+M5; C21 = M2+M4;
	// C22 = M1-M2+M3+M6.
	u1, err := binary(addK, ms[0], ms[3])
	if err != nil {
		return err
	}
	u2, err := binary(subK, u1, ms[4])
	if err != nil {
		return err
	}
	c11, err := binary(addK, u2, ms[6])
	if err != nil {
		return err
	}
	c12, err := binary(addK, ms[2], ms[4])
	if err != nil {
		return err
	}
	c21, err := binary(addK, ms[1], ms[3])
	if err != nil {
		return err
	}
	u3, err := binary(subK, ms[0], ms[1])
	if err != nil {
		return err
	}
	u4, err := binary(addK, u3, ms[2])
	if err != nil {
		return err
	}
	c22, err := binary(addK, u4, ms[5])
	if err != nil {
		return err
	}

	// Assemble the quadrants into the product.
	return sb.node("asm_"+out, kernels.Assemble4(size, size),
		[]string{c11, c12, c21, c22}, out)
}
