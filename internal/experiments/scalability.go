package experiments

import (
	"fmt"
	"time"

	"paradigm/internal/alloc"
	"paradigm/internal/mdg"
	"paradigm/internal/sched"
	"paradigm/internal/tables"
)

// ScalabilityRow is one synthetic-MDG size point.
type ScalabilityRow struct {
	Nodes, Edges int
	Depth, Width int
	AllocTime    time.Duration
	SchedTime    time.Duration
	PhiConvex    float64
	PhiHeuristic float64
	Tpsa         float64
	SolverIters  int
}

// ScalabilityResult carries experiment E13: how the compiler-side
// machinery (convex allocation + PSA) scales with MDG size.
type ScalabilityResult struct {
	Procs int
	Rows  []ScalabilityRow
}

// Scalability runs E13 on layered synthetic MDGs of growing size. The
// paper solves MDGs of up to ~35 nodes; this sweeps past 100 to show the
// approach stays practical for larger programs. The rows stay serial on
// purpose: each one times the allocator and scheduler, and concurrent
// siblings would contaminate those wall-clock measurements.
func Scalability(env *Env) (*ScalabilityResult, error) {
	const procs = 32
	model := env.Cal.Model()
	out := &ScalabilityResult{Procs: procs}
	for _, shape := range []struct{ layers, width int }{
		{3, 3}, {4, 5}, {6, 7}, {8, 13},
	} {
		g, err := mdg.RandomLayered(2026, shape.layers, shape.width, 3, 32768)
		if err != nil {
			return nil, err
		}
		metrics, err := g.ComputeMetrics()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		conv, err := alloc.Solve(g, model, procs, alloc.Options{})
		if err != nil {
			return nil, fmt.Errorf("scalability %d nodes: %w", metrics.Nodes, err)
		}
		allocTime := time.Since(t0)

		t0 = time.Now()
		s, err := sched.Run(g, model, conv.P, procs, sched.Options{})
		if err != nil {
			return nil, err
		}
		schedTime := time.Since(t0)

		heur, err := alloc.SolveHeuristic(g, model, procs)
		if err != nil {
			return nil, err
		}

		out.Rows = append(out.Rows, ScalabilityRow{
			Nodes: metrics.Nodes, Edges: metrics.Edges,
			Depth: metrics.Depth, Width: metrics.Width,
			AllocTime: allocTime, SchedTime: schedTime,
			PhiConvex: conv.Phi, PhiHeuristic: heur.Phi, Tpsa: s.Makespan,
			SolverIters: conv.Solver.Iters,
		})
	}
	return out, nil
}

// String renders E13.
func (r *ScalabilityResult) String() string {
	t := tables.New(
		fmt.Sprintf("E13 allocator scalability on layered synthetic MDGs, p = %d", r.Procs),
		"nodes", "edges", "depth", "width", "alloc time", "iters", "sched time",
		"Phi convex (s)", "Phi heuristic (s)", "T_psa (s)")
	for _, row := range r.Rows {
		t.Row(row.Nodes, row.Edges, row.Depth, row.Width,
			fmtDuration(row.AllocTime, time.Millisecond),
			row.SolverIters,
			fmtDuration(row.SchedTime, time.Microsecond),
			fmt.Sprintf("%.4f", row.PhiConvex),
			fmt.Sprintf("%.4f", row.PhiHeuristic),
			fmt.Sprintf("%.4f", row.Tpsa))
	}
	return t.String()
}
