// The machine-model backend interface: one contract covering everything
// the pipeline asks of a target machine, with two interchangeable
// implementations behind it (DESIGN.md §2).
//
// The pipeline consumes a machine model at three points:
//
//   - program build time, where each loop nest needs Amdahl (α, τ)
//     processing parameters (Backend.Loop);
//   - allocation and scheduling time, where edge delays need the
//     t_ss/t_ps/t_sr/t_pr/t_n transfer surface (Backend.Transfer);
//   - execution time, where the simulator needs the ground-truth
//     constants (Backend.SimParams).
//
// The trained backend (internal/trainsets) fills the first two by the
// paper's training-sets regression; the analytical backend (this
// package) derives them in closed form from the ground-truth constants
// with no calibration run, built from a Params profile or from a JSON
// Spec, which may pin the transfer surface instead.
package machine

import (
	"fmt"

	"paradigm/internal/costmodel"
)

// Kind names a backend implementation family.
type Kind string

const (
	// KindTrained is the training-sets regression of Section 4: model
	// parameters fitted to measured sweeps on the simulated machine.
	KindTrained Kind = "trained"
	// KindAnalytical is the closed-form roofline estimator: model
	// parameters derived directly from the machine constants (or a
	// spec's pinned transfer surface), no calibration run needed.
	KindAnalytical Kind = "analytical"
)

// Topology describes the interconnect family of a machine: the spec
// format's optional "topology" field, carried for topology-aware
// extensions and priced by nothing yet. Dims, when present, multiply out to the
// processor count (e.g. a mesh's side lengths).
type Topology struct {
	// Kind is the interconnect family: "fat-tree", "mesh", "grid",
	// "full", or "" when unknown.
	Kind string `json:"kind"`
	Dims []int  `json:"dims,omitempty"`
}

// LoopShape is the cost-relevant geometry of one loop nest: the kernel
// operation name, its matrix extents, and whether it runs on a blocked-2D
// (grid) layout. It is everything a backend needs to price processing.
type LoopShape struct {
	// Op is the kernel operation name: "none", "init", "add", "sub",
	// "mul", "extract" or "assemble4".
	Op      string
	M, N, K int
	Grid    bool
}

// Key is the canonical cache key for a shape. Its format is the trained
// backend's historical kernel cache key, so calibration snapshots taken
// before the backend interface replay byte-identically.
func (s LoopShape) Key() string {
	layout := "linear"
	if s.Grid {
		layout = "grid"
	}
	return fmt.Sprintf("%s:%dx%dx%d:%s", s.Op, s.M, s.N, s.K, layout)
}

// LoopSpec is a loop nest a backend can price: internal/kernels.Kernel
// implements it. The interface keeps the dependency arrow pointing the
// right way — kernels imports machine for Params, so machine sees loop
// nests only through this contract.
type LoopSpec interface {
	// Validate checks the loop's shape invariants.
	Validate() error
	// Shape returns the cost-relevant geometry.
	Shape() LoopShape
	// MaxProcTime is the ground-truth execution time of the loop on a
	// q-processor group of the profile — the measurable quantity the
	// trained backend sweeps.
	MaxProcTime(mp Params, q int) float64
}

// LoopSource is the narrow processing-cost surface program builders
// consume: both *trainsets.Calibration and every Backend satisfy it.
type LoopSource interface {
	// Loop returns Amdahl (α, τ) parameters for one named loop nest.
	Loop(name string, spec LoopSpec) (costmodel.LoopParams, error)
}

// Backend is one machine model: everything the allocate → schedule →
// simulate pipeline asks of a target machine. Implementations must be
// safe for concurrent use and deterministic — the same backend value
// must always return the same parameters, or checkpoint resume and the
// differential oracle both break.
type Backend interface {
	LoopSource

	// Name identifies the machine (e.g. "CM5").
	Name() string
	// Kind names the implementation family.
	Kind() Kind
	// SimParams returns the ground-truth simulator constants at the
	// profile's native system size; pipelines may run any subset via
	// SimParams().WithProcs.
	SimParams() Params
	// Transfer returns the fitted or derived redistribution cost surface
	// covering the 1D, 2D and grid regimes.
	Transfer() costmodel.TransferParams
}

// DefaultTopology maps the built-in profile names to their interconnect
// families: the CM-5 was a fat-tree, the Paragon a 2D mesh.
func DefaultTopology(name string, procs int) Topology {
	switch name {
	case "CM5":
		return Topology{Kind: "fat-tree"}
	case "Paragon":
		return Topology{Kind: "mesh", Dims: meshDims(procs)}
	default:
		return Topology{}
	}
}

// meshDims returns the most-square 2D factorization of p.
func meshDims(p int) []int {
	if p < 1 {
		return nil
	}
	r := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			r = d
		}
	}
	return []int{r, p / r}
}
