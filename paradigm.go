// Package paradigm reproduces "A Convex Programming Approach for
// Exploiting Data and Functional Parallelism on Distributed Memory
// Multicomputers" (Ramaswamy, Sapatnekar, Banerjee — ICPP 1994), the
// allocation-and-scheduling engine of the PARADIGM compiler.
//
// The pipeline mirrors the paper's five steps:
//
//  1. Represent the program as a Macro Dataflow Graph (Graph / Program):
//     nodes are loop nests with Amdahl processing costs, edges are
//     precedence constraints carrying 1D/2D data transfers.
//  2. Calibrate the cost models on the target machine by the
//     training-sets method (Calibrate → Calibration, Tables 1-2).
//  3. Allocate processors by convex programming (AllocateContext):
//     minimize Φ = max(A_p, C_p) over continuous allocations — globally
//     optimal thanks to the posynomial structure of the cost models.
//  4. Schedule with the Prioritized Scheduling Algorithm
//     (BuildScheduleContext): power-of-two rounding, the Corollary-1
//     processor bound PB, and lowest-EST list scheduling, with the
//     Theorem 1-3 quality bounds.
//  5. Generate true MPMD per-processor programs and execute them — here
//     on a deterministic simulated CM-5 that moves real data, so results
//     are verifiable end to end.
//
// RunContext (or RunOnContext, on a MachineBackend) performs steps 3-5 in
// one call; RunSPMDContext produces the pure data-parallel baseline the
// paper's Figure 8 compares against. Both end in the same code-generation
// and simulation stages.
package paradigm

import (
	"context"
	"fmt"
	"strings"

	"paradigm/internal/alloc"
	"paradigm/internal/bounds"
	"paradigm/internal/costmodel"
	"paradigm/internal/dist"
	"paradigm/internal/frontend"
	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/matrix"
	"paradigm/internal/mdg"
	"paradigm/internal/prog"
	"paradigm/internal/programs"
	"paradigm/internal/sched"
	"paradigm/internal/sim"
	"paradigm/internal/trainsets"
)

// Re-exported core types. The aliases give external users full access to
// the library's data model through this package alone.
type (
	// Machine is a target machine profile (ground-truth simulator costs).
	Machine = machine.Params
	// Calibration holds fitted cost-model parameters for one machine.
	Calibration = trainsets.Calibration
	// Model is the fitted analytic cost model used by the allocator and
	// scheduler.
	Model = costmodel.Model
	// LoopParams are Amdahl processing-cost parameters (α, τ).
	LoopParams = costmodel.LoopParams
	// TransferParams are the t_ss/t_ps/t_sr/t_pr/t_n messaging costs.
	TransferParams = costmodel.TransferParams
	// Graph is a Macro Dataflow Graph.
	Graph = mdg.Graph
	// Node is one MDG node (a loop nest).
	Node = mdg.Node
	// NodeID indexes a node in its Graph.
	NodeID = mdg.NodeID
	// Transfer describes one array moved along an MDG edge.
	Transfer = mdg.Transfer
	// Program binds an MDG to kernels, arrays and distributions.
	Program = prog.Program
	// ProgramBuilder assembles a Program incrementally.
	ProgramBuilder = prog.Builder
	// NodeSpec describes one program node's computation.
	NodeSpec = prog.NodeSpec
	// Kernel is a NodeSpec's loop nest: an Op over M×N (M×K by K×N for
	// OpMul) matrices, with a row generator Init for OpInit.
	Kernel = kernels.Kernel
	// Allocation is a convex-programming allocation result.
	Allocation = alloc.Result
	// Schedule is a PSA schedule.
	Schedule = sched.Schedule
	// ScheduleOptions tunes the PSA pipeline.
	ScheduleOptions = sched.Options
	// SimResult is a simulated machine run.
	SimResult = sim.Result
	// Matrix is a dense row-major float64 matrix.
	Matrix = matrix.Matrix
)

// Transfer kinds (Figure 4 regimes plus the grid extension).
const (
	// Transfer1D is the ROW2ROW / COL2COL regime.
	Transfer1D = mdg.Transfer1D
	// Transfer2D is the ROW2COL / COL2ROW regime.
	Transfer2D = mdg.Transfer2D
	// TransferG2L, TransferL2G and TransferG2G are the blocked-2D
	// (grid) redistribution regimes of the extension.
	TransferG2L = mdg.TransferG2L
	// TransferL2G moves a linearly distributed array onto a grid.
	TransferL2G = mdg.TransferL2G
	// TransferG2G moves between two grids.
	TransferG2G = mdg.TransferG2G
)

// The NodeSpec vocabulary: distribution axes for NodeSpec.Axis and
// loop types for NodeSpec.Kernel.Op.
const (
	// ByRow distributes contiguous row blocks.
	ByRow = dist.ByRow
	// ByCol distributes contiguous column blocks.
	ByCol = dist.ByCol
	// ByGrid distributes over a near-square processor grid (the paper's
	// general-distribution extension).
	ByGrid = dist.ByGrid

	// OpInit fills its output from the kernel's row generator Init.
	OpInit = kernels.OpInit
	// OpAdd computes a + b.
	OpAdd = kernels.OpAdd
	// OpSub computes a - b.
	OpSub = kernels.OpSub
	// OpMul computes a·b.
	OpMul = kernels.OpMul
)

// NewCM5 returns the simulated Thinking Machines CM-5 profile at the
// given system size — the paper's testbed.
func NewCM5(procs int) Machine { return machine.CM5(procs) }

// NewParagon returns the Intel-Paragon-like profile: faster processors
// and network, and a genuine per-byte network transit (t_n > 0), used by
// the portability experiment.
func NewParagon(procs int) Machine { return machine.Paragon(procs) }

// NewProgramBuilder starts an empty program.
func NewProgramBuilder(name string) *ProgramBuilder { return prog.NewBuilder(name) }

// Calibrate runs the training-sets calibration (Section 4) on a machine
// profile: the transfer sweep immediately, loop fits lazily per kernel.
// It is the positional form of CalibrateContext.
func Calibrate(m Machine) (*Calibration, error) {
	return CalibrateContext(context.Background(), m)
}

// TheoremBounds reports the Theorem 1, 2 and 3 factors for a (p, PB)
// pair.
func TheoremBounds(procs, pb int) (t1, t2, t3 float64, err error) {
	if t1, err = bounds.Theorem1Factor(procs, pb); err != nil {
		return
	}
	if t2, err = bounds.Theorem2Factor(procs, pb); err != nil {
		return
	}
	t3, err = bounds.Theorem3Factor(procs, pb)
	return
}

// Result is one end-to-end pipeline outcome.
type Result struct {
	// Alloc is the continuous allocation and its Φ.
	Alloc Allocation
	// Sched is the PSA schedule; Sched.Makespan is T_psa, the model's
	// predicted finish time.
	Sched *Schedule
	// Sim is the simulated execution; Sim.Makespan is the actual time.
	Sim *SimResult
	// Program is the program Sched and Sim describe: the submitted one,
	// or after recovery the residual program the survivors ran, whose
	// graph is renumbered and carries restore nodes. Render Sched
	// against Program.G.
	Program *Program
	// Predicted and Actual are the two makespans.
	Predicted, Actual float64
	// Recovered reports that the run survived a fault through
	// failure-aware rescheduling; RecoveryAttempts counts the replans and
	// FailedProcs lists the processors lost in the final halted run.
	// Alloc/Sched/Sim then describe the recovery run on the survivors.
	Recovered        bool
	RecoveryAttempts int
	FailedProcs      []int
}

// Verify checks every simulated array against the program's sequential
// reference, returning the worst absolute deviation.
func Verify(p *Program, res *SimResult) (float64, error) { return sim.Verify(p, res) }

// --- Built-in test programs -------------------------------------------------

// ComplexMatMul builds the paper's complex matrix multiplication program
// (Figure 6 left) for n×n complex matrices. Loop costs come from any
// machine model — a *Calibration or a MachineBackend.
func ComplexMatMul(n int, src LoopSource) (*Program, error) {
	return programs.ComplexMatMul(n, src)
}

// Strassen builds the paper's Strassen program (Figure 6 right) for n×n
// matrices (n even): StrassenRecursive at depth 1.
func Strassen(n int, src LoopSource) (*Program, error) {
	return programs.Strassen(n, src)
}

// StrassenRecursive builds Strassen's multiplication unfolded `depth`
// levels at the MDG level. Depth 1 is Strassen, the paper's program;
// depth 0 is one multiply; depth 2 yields a 49-multiply MDG. n must be
// divisible by 2^depth.
func StrassenRecursive(n, depth int, src LoopSource) (*Program, error) {
	return programs.StrassenRecursive(n, depth, src)
}

// SyntheticPipeline builds a width×depth pipeline workload exposing
// functional parallelism.
func SyntheticPipeline(n, width, depth int, src LoopSource) (*Program, error) {
	return programs.SyntheticPipeline(n, width, depth, src)
}

// builtinPrograms maps each built-in program name to its builder for
// size×size matrices and a Strassen recursion depth.
var builtinPrograms = []struct {
	name  string
	build func(size, depth int, src LoopSource) (*Program, error)
}{
	{"cmm", func(size, _ int, src LoopSource) (*Program, error) { return ComplexMatMul(size, src) }},
	{"strassen", StrassenRecursive},
	{"pipeline", func(size, _ int, src LoopSource) (*Program, error) { return SyntheticPipeline(size, 4, 3, src) }},
}

// BuildProgram builds a built-in program by name for size×size matrices:
// "cmm" is ComplexMatMul, "strassen" StrassenRecursive at depth (1 is the
// paper's program), "pipeline" a 4-wide, 3-deep SyntheticPipeline. Only
// "strassen" reads depth.
func BuildProgram(name string, size, depth int, src LoopSource) (*Program, error) {
	names := make([]string, len(builtinPrograms))
	for i, bp := range builtinPrograms {
		if bp.name == name {
			return bp.build(size, depth, src)
		}
		names[i] = bp.name
	}
	return nil, fmt.Errorf("unknown program %q (want one of %s)", name, strings.Join(names, ", "))
}

// FigureOneMDG returns the 3-node motivating example of Section 1.2.
func FigureOneMDG() *Graph { return programs.FigureOneMDG() }

// CompileSource compiles a matrix-program source text (see
// internal/frontend for the language) into an executable Program,
// pricing each loop shape through any machine model.
func CompileSource(name, src string, m LoopSource) (*Program, error) {
	return frontend.Compile(name, src, m)
}

// Speedup is a convenience: serial time over parallel time; it errors on
// non-positive inputs.
func Speedup(serial, parallel float64) (float64, error) {
	if serial <= 0 || parallel <= 0 {
		return 0, fmt.Errorf("paradigm: invalid times %v / %v", serial, parallel)
	}
	return serial / parallel, nil
}
