// Consensus-ADMM decomposition backend (DESIGN.md §12): instead of one
// solve over all n log-processor variables, the MDG is split
// into overlapping subgraphs — contiguous blocks of the topological
// order plus their one-hop boundary — and each subgraph's own convex
// program is solved in parallel with a proximal term pulling its copy
// of every node toward the global consensus. Shared nodes (those in
// more than one subgraph) are reconciled by the standard over-relaxed
// consensus update (Boyd et al., Distributed Optimization via ADMM,
// §7.1-7.2): the z-update averages the local copies, the scaled duals u
// accumulate disagreement, and the loop stops when the primal and dual
// residuals fall under the usual absolute+relative tolerances (§3.3).
//
// The local objectives sum subgraph Φs rather than reproducing the
// global max structure, so the consensus point is an approximation; the
// loop therefore tracks the exact full-graph Φ of every consensus
// iterate and keeps the best ("incumbent"), and by default a final
// polish runs one exact full-problem solve (the default backend's
// interior-point method) started at the incumbent.
// Smoothing anneals across outer iterations — each round's local solves
// run at a geometrically shrinking temperature, warm-started at the
// previous round's local solutions.
//
// Determinism: the partition derives from the deterministic topological
// order, local solves run under par.Map with per-subgraph state (no
// shared scratch), and the z/u updates walk nodes in fixed ascending
// order — so the backend returns identical allocations at any worker
// width.

package alloc

import (
	"context"
	"fmt"
	"math"
	"sort"

	"paradigm/internal/convex"
	"paradigm/internal/expr"
	"paradigm/internal/mdg"
	"paradigm/internal/par"
)

// ADMMOptions tunes the consensus-ADMM backend. The zero value selects
// robust defaults.
type ADMMOptions struct {
	// Subgraphs is the number of overlapping blocks the MDG is split
	// into. <= 0 selects n/64 clamped to [2, 16]; values above the node
	// count are clamped down.
	Subgraphs int
	// Rho is the augmented-Lagrangian penalty weight (<= 0: 1).
	Rho float64
	// Alpha is the over-relaxation factor; values in [1.5, 1.8]
	// typically accelerate consensus (<= 0: 1.6).
	Alpha float64
	// MaxIters caps consensus iterations (<= 0: 30).
	MaxIters int
	// AbsTol and RelTol are the primal/dual residual stopping
	// tolerances (<= 0: 1e-4 and 1e-3).
	AbsTol, RelTol float64
	// SkipPolish disables the final exact full-problem solve started at
	// the best consensus iterate. Polishing costs one default-backend
	// solve but recovers the exact solution; skip it only when raw
	// decomposition throughput matters more than the last few percent of
	// Φ.
	SkipPolish bool
}

func (a ADMMOptions) withDefaults(n int) ADMMOptions {
	if a.Subgraphs <= 0 {
		a.Subgraphs = max(2, min(16, n/64))
	}
	a.Subgraphs = max(1, min(a.Subgraphs, n))
	if a.Rho <= 0 {
		a.Rho = 1
	}
	if a.Alpha <= 0 {
		a.Alpha = 1.6
	}
	if a.MaxIters <= 0 {
		a.MaxIters = 30
	}
	if a.AbsTol <= 0 {
		a.AbsTol = 1e-4
	}
	if a.RelTol <= 0 {
		a.RelTol = 1e-3
	}
	return a
}

// admmSub is one subgraph's local state: its compiled convex program and
// the pool of evaluators its smoothed local solves draw from, the
// ascending global node ids it covers (local index = position), and its
// local primal/dual copies.
type admmSub struct {
	prob  *problem
	pool  *expr.EvaluatorPool
	nodes []int
	x, u  []float64
}

// admmPartition splits the topological order into k contiguous blocks
// and widens each with its one-hop boundary, returning each subgraph's
// global node ids in ascending order.
func admmPartition(g *mdg.Graph, order []mdg.NodeID, k int) [][]int {
	n := len(order)
	blocks := make([][]int, 0, k)
	for b := 0; b < k; b++ {
		lo, hi := b*n/k, (b+1)*n/k
		if lo >= hi {
			continue
		}
		in := make(map[int]bool, 2*(hi-lo))
		for _, v := range order[lo:hi] {
			in[int(v)] = true
			for _, p := range g.Preds(v) {
				in[int(p)] = true
			}
			for _, s := range g.Succs(v) {
				in[int(s)] = true
			}
		}
		nodes := make([]int, 0, len(in))
		for v := range in {
			nodes = append(nodes, v)
		}
		// map iteration order is random; ascending global id is the
		// canonical local order.
		sortInts(nodes)
		blocks = append(blocks, nodes)
	}
	return blocks
}

func sortInts(a []int) { sort.Ints(a) }

// subMDG builds the induced sub-MDG over the given ascending global
// node ids, keeping every edge with both endpoints inside.
func subMDG(g *mdg.Graph, nodes []int) *mdg.Graph {
	local := make(map[int]mdg.NodeID, len(nodes))
	var sg mdg.Graph
	for _, v := range nodes {
		local[v] = sg.AddNode(mdg.Node{Alpha: g.Nodes[v].Alpha, Tau: g.Nodes[v].Tau})
	}
	for _, e := range g.Edges {
		lf, okF := local[int(e.From)]
		lt, okT := local[int(e.To)]
		if okF && okT {
			sg.AddEdge(lf, lt, e.Transfers...)
		}
	}
	return &sg
}

// solveADMM runs the consensus-ADMM decomposition on the compiled
// problem.
func (p *problem) solveADMM(ctx context.Context, opts Options) (Result, error) {
	n := p.g.NumNodes()
	ao := opts.ADMM.withDefaults(n)
	order, err := p.g.TopoOrder()
	if err != nil {
		return Result{}, err
	}

	parts := admmPartition(p.g, order, ao.Subgraphs)
	subs := make([]*admmSub, len(parts))
	copies := make([]float64, n)
	for k, nodes := range parts {
		sp, cerr := compile(subMDG(p.g, nodes), p.model, p.procs, Options{IgnoreTransfers: opts.IgnoreTransfers}, false)
		if cerr != nil {
			return Result{}, fmt.Errorf("alloc: admm subgraph %d: %w", k, cerr)
		}
		subs[k] = &admmSub{
			prob:  sp,
			pool:  expr.NewEvaluatorPool(sp.eg),
			nodes: nodes,
			x:     make([]float64, len(nodes)),
			u:     make([]float64, len(nodes)),
		}
		for _, v := range nodes {
			copies[v]++
		}
	}

	// Consensus point: the box midpoint, the default backend's start, so
	// both backends begin from the same guess.
	z := p.midpoint()
	for _, s := range subs {
		for i, v := range s.nodes {
			s.x[i] = z[v]
		}
	}

	exactPhi := func(zz []float64) (Result, error) {
		r := Result{P: make([]float64, n)}
		for i := range r.P {
			r.P[i] = math.Exp(zz[i])
		}
		var perr error
		r.Phi, r.Ap, r.Cp, perr = p.model.Phi(p.g, r.P, p.procs)
		return r, perr
	}

	best, err := exactPhi(z)
	if err != nil {
		return Result{}, err
	}
	bestZ := append([]float64(nil), z...)

	// Outer-iteration smoothing schedule: local solves start at ~5% of
	// the incumbent objective and anneal geometrically as consensus
	// tightens.
	temp := 0.05 * best.Phi
	if !(temp > 0) || math.IsInf(temp, 0) {
		temp = 1
	}
	endTemp := temp * 1e-4

	totalCopies := 0.0
	for _, c := range copies {
		totalCopies += c
	}
	sqrtN := math.Sqrt(totalCopies)

	for iter := 0; iter < ao.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		// x-update: each subgraph minimizes its smoothed Φ plus the
		// proximal pull toward v = z - u, warm-started at its previous
		// local solution. Subgraphs race on the worker pool but touch
		// only their own state, so the outcome is width-independent.
		localTemp := temp
		if _, err := par.Map(ctx, len(subs), func(ctx context.Context, k int) (struct{}, error) {
			s := subs[k]
			sp := s.prob
			ev := s.pool.Get()
			defer s.pool.Put(ev)
			v := make([]float64, len(s.nodes))
			for i, g := range s.nodes {
				v[i] = z[g] - s.u[i]
			}
			obj := convex.TempFunc(func(t float64, x, grad []float64) float64 {
				var f float64
				if grad == nil {
					f = ev.Eval(sp.phi, x, t)
				} else {
					f = ev.EvalGrad(sp.phi, x, t, grad)
				}
				for i := range x {
					d := x[i] - v[i]
					f += 0.5 * ao.Rho * d * d
					if grad != nil {
						grad[i] += ao.Rho * d
					}
				}
				return f
			})
			sol, serr := convex.MinimizeAnnealed(obj, sp.lower, sp.upper, s.x, convex.AnnealOptions{
				StartTemp: localTemp, EndTemp: localTemp,
				Inner: convex.Options{MaxIter: 500},
			})
			if serr != nil {
				return struct{}{}, fmt.Errorf("alloc: admm subgraph %d: %w", k, serr)
			}
			copy(s.x, sol.X)
			return struct{}{}, nil
		}); err != nil {
			return Result{}, err
		}

		// z-update: over-relaxed average of the local copies, projected
		// into the box. Fixed ascending-order accumulation keeps the
		// floating-point result independent of solve timing.
		zOld := append([]float64(nil), z...)
		sum := make([]float64, n)
		for _, s := range subs {
			for i, g := range s.nodes {
				xhat := ao.Alpha*s.x[i] + (1-ao.Alpha)*zOld[g]
				sum[g] += xhat + s.u[i]
			}
		}
		for g := 0; g < n; g++ {
			z[g] = min(max(sum[g]/copies[g], p.lower[g]), p.upper[g])
		}

		// u-update and residuals (Boyd §3.3): r stacks per-copy
		// disagreement x_k - z, s is ρ·(z - z_old) per copy.
		var r2, s2, xNorm2, zNorm2, uNorm2 float64
		for _, s := range subs {
			for i, g := range s.nodes {
				xhat := ao.Alpha*s.x[i] + (1-ao.Alpha)*zOld[g]
				s.u[i] += xhat - z[g]
				d := s.x[i] - z[g]
				r2 += d * d
				xNorm2 += s.x[i] * s.x[i]
				zNorm2 += z[g] * z[g]
				uNorm2 += s.u[i] * s.u[i]
			}
		}
		for g := 0; g < n; g++ {
			dz := z[g] - zOld[g]
			s2 += copies[g] * dz * dz
		}
		s2 *= ao.Rho * ao.Rho

		cand, perr := exactPhi(z)
		if perr != nil {
			return Result{}, perr
		}
		if cand.Phi < best.Phi {
			best = cand
			copy(bestZ, z)
		}

		epsPri := sqrtN*ao.AbsTol + ao.RelTol*math.Sqrt(max(xNorm2, zNorm2))
		epsDual := sqrtN*ao.AbsTol + ao.RelTol*ao.Rho*math.Sqrt(uNorm2)
		if math.Sqrt(r2) <= epsPri && math.Sqrt(s2) <= epsDual {
			break
		}
		temp = max(temp*0.5, endTemp)
	}

	if !ao.SkipPolish {
		res, perr := p.solveFrom(ctx, bestZ, opts)
		if perr == nil && isFinite(res.Phi) && res.Phi <= best.Phi {
			res.Backend = BackendADMM
			return res, nil
		}
		if perr != nil && ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
	}
	best.Backend = BackendADMM
	return best, nil
}
