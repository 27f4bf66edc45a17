// The pluggable machine-model surface: every way a caller can tell the
// pipeline what machine it is compiling for.
//
// A MachineBackend answers all three machine questions the pipeline
// asks — Amdahl loop parameters at program-build time, the transfer
// cost surface at allocate/schedule time, and ground-truth simulator
// constants at execute time. Two implementations ship:
//
//   - trained (NewTrainedMachine): the paper's training-sets
//     regression, wrapping a Calibration. Byte-identical to the
//     Machine + Calibration form of RunContext.
//   - analytical (NewAnalyticalMachine, ResolveMachine,
//     MachineFromSpec): a closed-form roofline estimator derived
//     directly from the machine constants — no calibration run. Built
//     from a JSON machine spec (the built-in database or a user file),
//     it serves the spec's pinned transfer surface when it has one.
//
// WithMachine threads a backend through any pipeline entry point;
// RunOnContext runs the whole pipeline on one:
//
//	b, err := paradigm.ResolveMachine("testdata/machines/cm5-hetero8.json")
//	res, err := paradigm.RunOnContext(ctx, prog, b, 8)
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
	// MachineKind names a backend implementation family ("trained" or
	// "analytical").
	MachineKind = machine.Kind
	// MachineSpec is the JSON machine description MachineFromSpec
	// consumes (see testdata/machines/*.json).
	MachineSpec = machine.Spec
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

// MachineNames lists the built-in machine database, sorted.
func MachineNames() []string { return machine.BuiltinNames() }

// ResolveMachine turns a machine reference into an analytical backend:
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

// MachineFromSpec builds the analytical backend for a validated spec.
func MachineFromSpec(s *MachineSpec) (MachineBackend, error) { return machine.FromSpec(s) }

// NewAnalyticalMachine wraps a machine profile in the closed-form
// roofline estimator: loop and transfer parameters derived directly
// from the constants, no calibration run.
func NewAnalyticalMachine(m Machine) (MachineBackend, error) { return machine.NewAnalytical(m) }

// NewTrainedMachine wraps a calibration in the Backend interface. The
// resulting backend prices loops and transfers exactly as the
// calibration does.
func NewTrainedMachine(cal *Calibration) MachineBackend { return cal.Backend() }

// WithMachine supplies the machine model for a pipeline call from a
// backend, overriding the positional Machine/Calibration arguments:
// the simulator runs on b.SimParams(), and allocation/scheduling use
// b.Transfer(). RunContext then accepts a nil Calibration.
func WithMachine(b MachineBackend) Option {
	return func(c *config) { c.mach = b }
}

// RunOnContext executes the full pipeline — allocate, schedule,
// generate MPMD code, simulate — for a program on a machine backend at
// the given system size; it is RunContext with the machine model drawn
// entirely from b.
func RunOnContext(ctx context.Context, p *Program, b MachineBackend, procs int, opts ...Option) (*Result, error) {
	return RunContext(ctx, p, b.SimParams(), nil, procs, append(opts, WithMachine(b))...)
}
