// Residual program construction for failure recovery: arrays salvaged
// from a halted run's surviving processors become cheap OpInit "restore"
// nodes, and everything else re-runs. Builder re-derives the MDG edges
// mechanically, so the residual program is schedulable by the ordinary
// pipeline with no special cases downstream.

package prog

import (
	"fmt"

	"paradigm/internal/costmodel"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/matrix"
)

// Residual builds the recovery program for a partial run of p: every
// array in restored is reproduced by an OpInit node closing over the
// salvaged matrix (keeping the original producer's distribution axis, so
// consumers redistribute exactly as before), and every other computation
// node re-runs with its original spec and Amdahl parameters. lp
// calibrates the restore kernels — recovery passes the training-sets
// cache, so restore nodes are costed like any other initialization.
//
// The rule is inductively sound: a re-running node's inputs are either
// restored (salvaged bit-for-bit) or produced by another re-running
// node, so the residual run reproduces the original run's values
// exactly.
func (p *Program) Residual(restored map[string]*matrix.Matrix, lp func(name string, k kernels.Kernel) (costmodel.LoopParams, error)) (*Program, error) {
	order, err := p.G.TopoOrder()
	if err != nil {
		return nil, err
	}
	for name, m := range restored {
		arr, ok := p.Arrays[name]
		if !ok {
			return nil, fmt.Errorf("prog: restored array %q not in program %q", name, p.Name)
		}
		if m == nil || m.Rows != arr.Rows || m.Cols != arr.Cols {
			return nil, fmt.Errorf("prog: restored array %q has wrong shape", name)
		}
	}
	b := NewBuilder(p.Name + "+recovery")
	for _, v := range order {
		spec := p.Specs[v]
		if spec.Kernel.Op == kernels.OpNone {
			continue
		}
		nodeName := p.G.Nodes[v].Name
		if m, ok := restored[spec.Output]; ok {
			arr := p.Arrays[spec.Output]
			k := kernels.Kernel{
				Op: kernels.OpInit, M: arr.Rows, N: arr.Cols,
				Init: func(i, j0 int, row []float64) { copy(row, m.Data[i*m.Cols+j0:]) },
				// Match AddNode's layout normalization so the calibration
				// cache keys the same kernel shape the simulator charges.
				Grid: spec.Axis == dist.ByGrid,
			}
			lpv, err := lp("Restore ("+spec.Output+")", k)
			if err != nil {
				return nil, fmt.Errorf("prog: calibrating restore of %q: %w", spec.Output, err)
			}
			b.AddNode("restore_"+nodeName, NodeSpec{Kernel: k, Output: spec.Output, Axis: spec.Axis}, lpv)
			continue
		}
		nd := p.G.Nodes[v]
		b.AddNode(nodeName, spec, costmodel.LoopParams{Alpha: nd.Alpha, Tau: nd.Tau})
	}
	return b.Finish()
}
