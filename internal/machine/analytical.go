// The analytical backend: a roofline-style closed-form estimator that
// derives the paper's model parameters directly from the ground-truth
// machine constants, with no calibration run. It trades the trained
// backend's fit quality (which absorbs ceiling imbalance and per-message
// residuals) for instant availability — exactly what a new machine spec
// needs before anyone has run the training sets on it.
package machine

import (
	"fmt"
	"math"

	"paradigm/internal/costmodel"
)

// Analytical prices loops and transfers in closed form from a Params
// profile. Built from a Spec (FromSpec), it serves the spec's pinned
// transfer surface instead of the derived one when the spec has one.
type Analytical struct {
	p      Params
	pinned *costmodel.TransferParams
}

var _ Backend = (*Analytical)(nil)

// NewAnalytical returns the closed-form backend for a validated profile.
func NewAnalytical(p Params) (*Analytical, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Analytical{p: p}, nil
}

// Name implements Backend.
func (a *Analytical) Name() string { return a.p.Name }

// Kind implements Backend.
func (a *Analytical) Kind() Kind { return KindAnalytical }

// SimParams implements Backend.
func (a *Analytical) SimParams() Params { return a.p }

// Transfer returns the pinned surface when the spec has one, and
// otherwise derives it from the per-message constants: startups map to
// the fixed terms, per-byte rates to the linear terms, and tag matching
// — paid per message at the receiver — folds into the receive startup.
// The trained backend fits the same five parameters from measured
// sweeps; on these profiles the two agree to within the regression's
// residuals.
func (a *Analytical) Transfer() costmodel.TransferParams {
	if a.pinned != nil {
		return *a.pinned
	}
	return costmodel.TransferParams{
		Tss: a.p.SendStartup,
		Tps: a.p.SendPerByte,
		Tsr: a.p.RecvStartup + a.p.MsgMatchOverhead,
		Tpr: a.p.RecvPerByte,
		Tn:  a.p.NetPerByte,
	}
}

// Loop derives Amdahl (α, τ) for a loop nest: τ is the serial execution
// time (prologue + work + the full collective tree at the native system
// size), and ατ is the part that does not shrink with the group — the
// prologue plus the collectives, the same decomposition the trained
// regression recovers from its sweep.
func (a *Analytical) Loop(name string, spec LoopSpec) (costmodel.LoopParams, error) {
	if err := spec.Validate(); err != nil {
		return costmodel.LoopParams{}, err
	}
	sh, p := spec.Shape(), a.p
	if sh.Op == "none" {
		return costmodel.LoopParams{}, nil
	}
	elems := float64(sh.M) * float64(sh.N)
	stages := 0.0
	if p.Procs > 1 {
		stages = math.Ceil(math.Log2(float64(p.Procs)))
	}
	var work, comm float64
	switch sh.Op {
	case "init":
		work = elems * p.InitElemTime
	case "add", "sub":
		work = elems * p.AddElemTime
	case "mul":
		work = elems * float64(sh.K) * p.FMATime
		// The all-gather of the second operand (and, on grids, of the row
		// panel too): a log-depth tree whose cost does not shrink with the
		// group — the dominant serial fraction of a distributed multiply.
		bytes := float64(sh.K*sh.N) * 8
		if sh.Grid {
			bytes += float64(sh.M*sh.K) * 8
		}
		comm = stages * (p.CollStartup + bytes*p.CollPerByte)
	case "extract", "assemble4":
		work = elems * 8 * p.CopyPerByte
		// One shuffle exchange to land the blocks.
		comm = p.CollStartup + elems*8*p.CollPerByte
	default:
		return costmodel.LoopParams{}, fmt.Errorf("machine: analytical backend cannot price op %q", sh.Op)
	}
	serial := p.LoopOverhead + comm
	tau := serial + work
	alpha := 0.0
	if tau > 0 {
		alpha = math.Min(1, serial/tau)
	}
	return costmodel.LoopParams{Alpha: alpha, Tau: tau}, nil
}
