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
//   - analytical (ResolveMachine): a closed-form roofline estimator
//     derived directly from the machine constants — no calibration run.
//     Built from a JSON machine spec (the built-in database or a user
//     file), it serves the spec's pinned transfer surface when it has
//     one.
//
// RunOnContext runs the whole pipeline on a backend; the planning-only
// entry points take the backend's Model{Transfer: b.Transfer()}, and
// RunSPMDContext takes that model with b.SimParams():
//
//	b, err := paradigm.ResolveMachine("testdata/machines/cm5-hetero8.json")
//	res, err := paradigm.RunOnContext(ctx, prog, b, 8)
package paradigm

import (
	"context"

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
	// LoopSource is the narrow processing-cost surface the program
	// builders consume: both *Calibration and every MachineBackend
	// satisfy it.
	LoopSource = machine.LoopSource
)

// Backend implementation families.
const (
	// MachineTrained is the training-sets regression of Section 4.
	MachineTrained = machine.KindTrained
	// MachineAnalytical is the closed-form roofline estimator.
	MachineAnalytical = machine.KindAnalytical
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

// NewTrainedMachine wraps a calibration in the Backend interface. The
// resulting backend prices loops and transfers exactly as the
// calibration does.
func NewTrainedMachine(cal *Calibration) MachineBackend { return cal.Backend() }

// RunOnContext executes the full pipeline — allocate, schedule,
// generate MPMD code, simulate — for a program on a machine backend at
// the given system size: RunContext with the simulator on b.SimParams(),
// the planning stages on b.Transfer() and recovery re-pricing loops
// through b.
func RunOnContext(ctx context.Context, p *Program, b MachineBackend, procs int, opts ...Option) (*Result, error) {
	return run(ctx, p, b.SimParams(), Model{Transfer: b.Transfer()}, b, procs, opts)
}
