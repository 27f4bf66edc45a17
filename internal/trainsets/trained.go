// The trained machine-model backend: today's training-sets regression
// served through the machine.Backend interface. It is a thin view over a
// Calibration — loop fits come from the lazy Amdahl sweeps, the transfer
// surface from the Table 2 regression — so pipelines driven through the
// interface stay byte-identical to ones driven through the Calibration
// directly.
package trainsets

import (
	"paradigm/internal/costmodel"
	"paradigm/internal/machine"
)

// Trained adapts a Calibration to machine.Backend. (Calibration itself
// cannot implement the interface: its exported Transfer field already
// occupies the method name.)
type Trained struct {
	cal *Calibration
}

// Backend returns the calibration's machine.Backend view.
func (c *Calibration) Backend() *Trained { return &Trained{cal: c} }

// Name implements machine.Backend.
func (t *Trained) Name() string { return t.cal.Machine.Name }

// Kind implements machine.Backend.
func (t *Trained) Kind() machine.Kind { return machine.KindTrained }

// SimParams implements machine.Backend.
func (t *Trained) SimParams() machine.Params { return t.cal.Machine }

// Transfer implements machine.Backend with the fitted Table 2 surface.
func (t *Trained) Transfer() costmodel.TransferParams { return t.cal.Transfer.Params }

// Loop implements machine.Backend with the lazy Table 1 fits.
func (t *Trained) Loop(name string, spec machine.LoopSpec) (costmodel.LoopParams, error) {
	return t.cal.Loop(name, spec)
}

// Interface conformance checks.
var _ machine.Backend = (*Trained)(nil)
var _ machine.LoopSource = (*Calibration)(nil)
