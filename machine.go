// The pluggable machine-model surface: every way a caller can tell the
// pipeline what machine it is compiling for.
//
// A MachineBackend answers all three machine questions the pipeline
// asks — Amdahl loop parameters at program-build time, the transfer
// cost surface at allocate/schedule time, and ground-truth simulator
// constants at execute time. Three implementations ship:
//
//   - trained (NewTrainedMachine): the paper's training-sets
//     regression, wrapping a Calibration. Byte-identical to the
//     historical positional pipeline.
//   - analytical (NewAnalyticalMachine): a closed-form roofline
//     estimator derived directly from the machine constants — no
//     calibration run.
//   - file-loaded (ResolveMachine / MachineFromSpec): a JSON machine
//     spec, from the built-in database or a user file, estimated
//     analytically unless the spec pins an explicit transfer surface.
//
// WithMachine threads a backend through any pipeline entry point;
// RunOn is the one-call form:
//
//	b, err := paradigm.ResolveMachine("testdata/machines/cm5-hetero8.json")
//	res, err := paradigm.RunOn(prog, b, 8)
package paradigm

import (
	"context"

	"paradigm/internal/alloc"
	"paradigm/internal/errs"
	"paradigm/internal/machine"
)

// Machine-backend re-exports.
type (
	// MachineBackend is one machine model: everything the
	// allocate → schedule → simulate pipeline asks of a target machine.
	MachineBackend = machine.Backend
	// MachineKind names a backend implementation family ("trained",
	// "analytical", "file").
	MachineKind = machine.Kind
	// MachineSpec is the JSON machine description the file-loaded
	// backend consumes (see testdata/machines/*.json).
	MachineSpec = machine.Spec
	// MachineTopology describes a machine's interconnect family.
	MachineTopology = machine.Topology
	// LoopSource is the narrow processing-cost surface the program
	// builders consume: both *Calibration and every MachineBackend
	// satisfy it.
	LoopSource = machine.LoopSource
	// LoopShape is the cost-relevant geometry of one loop nest.
	LoopShape = machine.LoopShape
)

// Backend implementation families.
const (
	// MachineTrained is the training-sets regression of Section 4.
	MachineTrained = machine.KindTrained
	// MachineAnalytical is the closed-form roofline estimator.
	MachineAnalytical = machine.KindAnalytical
	// MachineFile is a JSON spec from the database or a user file.
	MachineFile = machine.KindFile
)

// Allocation-backend re-exports: the typed selector for
// AllocOptions.Backend.
type AllocBackend = alloc.Backend

const (
	// AllocAuto selects the default strategy (the exact convex solve).
	AllocAuto = alloc.BackendAuto
	// AllocAnneal is the exact convex solve from the box midpoint (the
	// name predates it; see alloc.BackendAnneal).
	AllocAnneal = alloc.BackendAnneal
)

// Machine and backend sentinel errors.
var (
	// ErrUnknownBackend marks an AllocOptions.Backend value naming no
	// solve strategy, or a machine reference naming no builtin.
	ErrUnknownBackend = errs.ErrUnknownBackend
	// ErrBadMachineSpec marks a machine spec that fails validation
	// (malformed JSON, non-finite constants, table-length mismatches).
	ErrBadMachineSpec = errs.ErrBadMachineSpec
)

// ParseAllocBackend maps a CLI string ("auto", "anneal", or the retired
// "admm", which runs the same exact solve) to a typed allocation backend,
// failing with ErrUnknownBackend.
func ParseAllocBackend(s string) (AllocBackend, error) { return alloc.ParseBackend(s) }

// MachineNames lists the built-in machine database, sorted.
func MachineNames() []string { return machine.BuiltinNames() }

// ResolveMachine turns a machine reference into a file-loaded backend:
// a built-in database name first ("cm5", "paragon", "cm5-hetero8",
// "paragon-memcap8", case-insensitive), then a path to a JSON spec.
// Unknown names fail with ErrUnknownBackend; bad specs with
// ErrBadMachineSpec.
func ResolveMachine(ref string) (MachineBackend, error) {
	spec, err := machine.Resolve(ref)
	if err != nil {
		return nil, err
	}
	return machine.FromSpec(spec)
}

// LoadMachineSpec reads and validates one JSON machine spec file.
func LoadMachineSpec(path string) (*MachineSpec, error) { return machine.LoadSpec(path) }

// MachineFromSpec builds the file-loaded backend for a validated spec.
func MachineFromSpec(s *MachineSpec) (MachineBackend, error) { return machine.FromSpec(s) }

// MachineSpecOf exports a machine profile as a spec — the starting
// point for writing a custom machine file.
func MachineSpecOf(m Machine) *MachineSpec { return machine.SpecFromParams(m) }

// NewAnalyticalMachine wraps a machine profile in the closed-form
// roofline estimator: loop and transfer parameters derived directly
// from the constants, no calibration run.
func NewAnalyticalMachine(m Machine) (MachineBackend, error) { return machine.NewAnalytical(m) }

// NewTrainedMachine wraps a calibration in the Backend interface. The
// resulting backend prices loops and transfers exactly as the
// calibration does — the historical positional pipeline, behind the
// pluggable surface.
func NewTrainedMachine(cal *Calibration) MachineBackend { return cal.Backend() }

// TrainMachine calibrates a machine profile and returns the trained
// backend in one step: Calibrate followed by NewTrainedMachine.
func TrainMachine(m Machine) (MachineBackend, error) {
	cal, err := Calibrate(m)
	if err != nil {
		return nil, err
	}
	return cal.Backend(), nil
}

// WithMachine supplies the machine model for a pipeline call from a
// backend, overriding the positional Machine/Calibration arguments:
// the simulator runs on b.SimParams(), and allocation/scheduling use
// b.Transfer(). RunContext then accepts a nil Calibration.
func WithMachine(b MachineBackend) Option {
	return func(c *config) { c.mach = b }
}

// RunOn executes the full pipeline — allocate, schedule, generate MPMD
// code, simulate — for a program on a machine backend at the given
// system size. It is the positional form of RunOnContext.
func RunOn(p *Program, b MachineBackend, procs int) (*Result, error) {
	return RunOnContext(context.Background(), p, b, procs)
}

// RunOnContext executes the full pipeline on a machine backend with
// cancellation and options; it is RunContext with the machine model
// drawn entirely from b.
func RunOnContext(ctx context.Context, p *Program, b MachineBackend, procs int, opts ...Option) (*Result, error) {
	return RunContext(ctx, p, b.SimParams(), nil, procs, append(opts, WithMachine(b))...)
}
