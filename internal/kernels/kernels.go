// Package kernels implements the loop nests appearing in the test
// programs — Matrix Initialization, Matrix Addition/Subtraction and Matrix
// Multiplication (the three loop types of Section 6) — together with their
// ground-truth execution cost on a machine.Params profile.
//
// Each kernel provides:
//
//   - a sequential reference (Execute), used both by the simulator to
//     produce real values and by the test suite as the verification
//     oracle;
//   - for Matrix Initialization, a row generator (Kernel.Init): the
//     reference and every simulated processor fill their output a row
//     segment at a time through it, so a generator pays for a call per
//     row, not per element, and can run its arithmetic over the whole
//     segment at once (matrix.Sin and matrix.Cos for the trigonometric
//     generators of the test programs);
//   - a per-processor parallel cost rule (ProcTime), used by the
//     simulator as the machine's ground truth. The rule is intentionally
//     NOT of the clean Amdahl form: it has ceiling-based block imbalance,
//     a fixed serial prologue, and (for Multiply) a log-tree all-gather
//     of the second operand whose cost grows with the group size. The
//     Amdahl model of Equation 1 only *fits* this behaviour, which is
//     what gives the training-sets regression of Table 1 something real
//     to estimate.
package kernels

import (
	"fmt"
	"math"

	"paradigm/internal/machine"
	"paradigm/internal/matrix"
)

// Op enumerates the kernel types.
type Op uint8

const (
	// OpNone marks dummy nodes (START/STOP); it computes nothing and
	// costs nothing.
	OpNone Op = iota
	// OpInit fills the output matrix from an element generator.
	OpInit
	// OpAdd computes dst = a + b.
	OpAdd
	// OpSub computes dst = a - b.
	OpSub
	// OpMul computes dst = a·b.
	OpMul
	// OpExtract copies a rectangle out of a larger matrix (reshape.go).
	OpExtract
	// OpAssemble4 tiles four quadrants into one matrix (reshape.go).
	OpAssemble4
)

// String renders the op name.
func (o Op) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpInit:
		return "init"
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpMul:
		return "mul"
	case OpExtract:
		return "extract"
	case OpAssemble4:
		return "assemble4"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Kernel describes one loop nest. Shapes: Init/Add/Sub produce M×N from
// M×N inputs; Mul produces M×N from M×K and K×N inputs.
type Kernel struct {
	Op      Op
	M, N, K int
	// Init generates the output of OpInit a row segment at a time; it is
	// ignored otherwise. Init(i, j0, row) sets row[k] to element
	// (i, j0+k) for every k. It must write every element of row, and each
	// element must be a pure function of (i, j) alone, with the same bits
	// however the row is split into segments: the reference run fills
	// whole rows, the simulator fills each processor's block, with
	// j0 ≠ 0 and short rows under column and grid layouts, from several
	// goroutines at once. Elementwise adapts a function of (i, j).
	Init func(i, j0 int, row []float64)
	// Grid selects the blocked-2D layout cost rules (grid.go) instead of
	// the linear ones. Set by prog.Builder from the node's axis.
	Grid bool
	// OpExtract geometry: the input shape and the anchor of the copied
	// rectangle (reshape.go).
	SrcRows, SrcCols int
	OffR, OffC       int
}

// Elementwise returns the row generator that sets each element (i, j)
// to f(i, j), one call per element: the form of a generator with no
// arithmetic worth running over a row at once.
func Elementwise(f func(i, j int) float64) func(i, j0 int, row []float64) {
	return func(i, j0 int, row []float64) {
		for k := range row {
			row[k] = f(i, j0+k)
		}
	}
}

// Validate checks shape invariants.
func (k Kernel) Validate() error {
	switch k.Op {
	case OpNone:
		return nil
	case OpInit:
		if k.Init == nil {
			return fmt.Errorf("kernels: OpInit requires an Init generator")
		}
		if k.M <= 0 || k.N <= 0 {
			return fmt.Errorf("kernels: invalid init shape %dx%d", k.M, k.N)
		}
	case OpAdd, OpSub:
		if k.M <= 0 || k.N <= 0 {
			return fmt.Errorf("kernels: invalid %s shape %dx%d", k.Op, k.M, k.N)
		}
	case OpMul:
		if k.M <= 0 || k.N <= 0 || k.K <= 0 {
			return fmt.Errorf("kernels: invalid mul shape %dx%dx%d", k.M, k.K, k.N)
		}
	case OpExtract, OpAssemble4:
		return k.validateReshape()
	default:
		return fmt.Errorf("kernels: unknown op %d", k.Op)
	}
	return nil
}

// NumInputs returns how many operand arrays the kernel consumes.
func (k Kernel) NumInputs() int {
	switch k.Op {
	case OpAdd, OpSub, OpMul:
		return 2
	case OpExtract:
		return 1
	case OpAssemble4:
		return 4
	default:
		return 0
	}
}

// Execute runs the sequential reference: dst receives the result. Inputs
// are given in operand order (a, b). OpNone is a no-op.
func (k Kernel) Execute(dst *matrix.Matrix, inputs ...*matrix.Matrix) error {
	if err := k.Validate(); err != nil {
		return err
	}
	switch k.Op {
	case OpNone:
		return nil
	case OpInit:
		if dst.Rows != k.M || dst.Cols != k.N {
			return fmt.Errorf("kernels: init dst %dx%d, want %dx%d", dst.Rows, dst.Cols, k.M, k.N)
		}
		for i := 0; i < k.M; i++ {
			k.Init(i, 0, dst.Data[i*k.N:][:k.N])
		}
		return nil
	case OpAdd:
		if len(inputs) != 2 {
			return fmt.Errorf("kernels: add needs 2 inputs, got %d", len(inputs))
		}
		return matrix.Add(dst, inputs[0], inputs[1])
	case OpSub:
		if len(inputs) != 2 {
			return fmt.Errorf("kernels: sub needs 2 inputs, got %d", len(inputs))
		}
		return matrix.Sub(dst, inputs[0], inputs[1])
	case OpMul:
		if len(inputs) != 2 {
			return fmt.Errorf("kernels: mul needs 2 inputs, got %d", len(inputs))
		}
		return matrix.Mul(dst, inputs[0], inputs[1])
	case OpExtract, OpAssemble4:
		return k.executeReshape(dst, inputs)
	}
	return fmt.Errorf("kernels: unknown op %d", k.Op)
}

// SerialTime is the machine ground-truth single-processor execution time.
func (k Kernel) SerialTime(mp machine.Params) float64 {
	return k.ProcTime(mp, 1, k.rowsOf(1, 0))
}

// rowsOf returns the number of distributed-axis indices processor slot s
// of q owns under the blocked distribution (ceil-based).
func (k Kernel) rowsOf(q, s int) int {
	bs := (k.M + q - 1) / q
	lo := s * bs
	hi := lo + bs
	if hi > k.M {
		hi = k.M
	}
	if lo > hi {
		lo = hi
	}
	return hi - lo
}

// MaxProcTime returns the slowest group member's time on a q-processor
// group — the loop's observable execution time, the quantity the
// training-sets calibration measures. Grid-layout kernels dispatch to
// the grid cost rules.
func (k Kernel) MaxProcTime(mp machine.Params, q int) float64 {
	if k.Grid {
		return k.MaxGridProcTime(mp, q)
	}
	worst := 0.0
	for s := 0; s < q; s++ {
		if t := k.ProcTime(mp, q, k.rowsOf(q, s)); t > worst {
			worst = t
		}
	}
	return worst
}

// ProcTime is the machine ground-truth time one processor spends executing
// its share (myExtent indices along the distributed dimension) of the
// kernel on a q-processor group.
func (k Kernel) ProcTime(mp machine.Params, q, myExtent int) float64 {
	if q < 1 {
		panic(fmt.Sprintf("kernels: group size %d", q))
	}
	if myExtent < 0 {
		panic(fmt.Sprintf("kernels: negative extent %d", myExtent))
	}
	switch k.Op {
	case OpNone:
		return 0
	case OpInit:
		return mp.LoopOverhead + float64(myExtent*k.N)*mp.InitElemTime
	case OpAdd, OpSub:
		return mp.LoopOverhead + float64(myExtent*k.N)*mp.AddElemTime
	case OpMul:
		t := mp.LoopOverhead + float64(myExtent*k.N*k.K)*mp.FMATime
		if q > 1 {
			// All-gather of the K×N second operand over a log-depth tree:
			// the intra-node communication that makes the data-parallel
			// multiply less than perfectly scalable.
			stages := math.Ceil(math.Log2(float64(q)))
			bytes := float64(k.K * k.N * 8)
			t += stages * (mp.CollStartup + bytes*mp.CollPerByte)
		}
		return t
	case OpExtract, OpAssemble4:
		return reshapeProcTime(mp, q, myExtent*k.N)
	default:
		panic(fmt.Sprintf("kernels: unknown op %d", k.Op))
	}
}

// Shape returns the cost-relevant geometry, implementing
// machine.LoopSpec: together with Validate and MaxProcTime it lets any
// machine backend price this kernel without importing this package.
func (k Kernel) Shape() machine.LoopShape {
	return machine.LoopShape{Op: k.Op.String(), M: k.M, N: k.N, K: k.K, Grid: k.Grid}
}

var _ machine.LoopSpec = Kernel{}

// OutputShape returns the produced matrix shape (0x0 for OpNone).
func (k Kernel) OutputShape() (rows, cols int) {
	if k.Op == OpNone {
		return 0, 0
	}
	return k.M, k.N
}

// InputShape returns the shape of operand idx.
func (k Kernel) InputShape(idx int) (rows, cols int) {
	switch k.Op {
	case OpAdd, OpSub:
		if idx == 0 || idx == 1 {
			return k.M, k.N
		}
	case OpMul:
		if idx == 0 {
			return k.M, k.K
		}
		if idx == 1 {
			return k.K, k.N
		}
	case OpExtract:
		if idx == 0 {
			return k.SrcRows, k.SrcCols
		}
	case OpAssemble4:
		if idx >= 0 && idx < 4 {
			return k.M / 2, k.N / 2
		}
	}
	panic(fmt.Sprintf("kernels: %s has no input %d", k.Op, idx))
}
