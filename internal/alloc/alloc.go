// Package alloc implements the MDG allocation algorithm of Section 2.
//
// Given an MDG with n nodes and a p-processor system, it chooses
// continuous processor counts p_i ∈ [1, p] minimizing
//
//	Φ = max(A_p, C_p)
//
// where A_p = (1/p)·Σ T_i·p_i is the processor-time-area lower bound and
// C_p = y_STOP with y_i = max over predecessors m of (y_m + t^D_mi) + T_i
// is the critical-path time; T_i combines the receive costs from all
// predecessors, the Amdahl processing cost, and the send costs to all
// successors (internal/costmodel).
//
// Because every cost term is posynomial (Lemmas 1-2), the substitution
// x_i = ln p_i makes the problem convex, so the minimum found is global —
// the property that distinguishes this paper from its heuristic
// predecessors. The program is solved exactly: compiled to epigraph form,
// one log-domain variable per max (expr.Graph.Epigraph), and handed to a
// primal-dual interior-point method (convex.MinimizeEpigraph) that stops
// on a certified duality gap of 1e-9 in log units; the reported Φ, A_p
// and C_p are re-evaluated with exact (hard-max) arithmetic at the
// solution point.
package alloc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"paradigm/internal/convex"
	"paradigm/internal/costmodel"
	"paradigm/internal/errs"
	"paradigm/internal/expr"
	"paradigm/internal/mdg"
	"paradigm/internal/obs"
)

// Options tunes Solve. The zero value selects robust defaults.
type Options struct {
	// IgnoreTransfers zeroes the data-transfer costs in the objective
	// (the Prasanna-Agarwal-style ablation A3 of DESIGN.md). The reported
	// Φ/A_p/C_p still use the full model.
	IgnoreTransfers bool
	// Backend selects the solve strategy. Every selectable value —
	// BackendAuto, BackendAnneal and the retired BackendADMM — runs the
	// one exact interior-point solve. Any other value fails option
	// validation with errs.ErrUnknownBackend. Untyped string literals
	// still compile (Backend is a string type).
	Backend Backend
	// ADMM is ignored.
	//
	// Deprecated: the consensus-ADMM backend is retired; see ADMMOptions.
	ADMM ADMMOptions
	// Cache, when non-nil, memoizes solved allocations keyed by the
	// relabel-invariant canonical MDG hash, cost model, solve options and
	// processor count (cache.go). A hit replays the stored allocation
	// byte-identically without solving (Result.Solver is zero); anything
	// else is a cold solve, so the result never depends on what the cache
	// holds. Lookups and inserts are safe for concurrent solves sharing
	// one cache.
	Cache *Cache
	// CacheExactOnly is ignored.
	//
	// Deprecated: every lookup is exact; this field has no effect.
	CacheExactOnly bool
	// Observer, when non-nil, receives one obs.SolverStage event per
	// interior-point iteration, one obs.AllocCache event per cache
	// lookup, and one obs.AllocDone event per completed solve. Nil costs
	// one pointer comparison per iteration.
	Observer obs.Observer
	// FallbackHeuristic enables graceful degradation: when the convex
	// solve fails or returns a non-finite Φ, SolveCtx falls back
	// to the greedy critical-path heuristic (SolveHeuristic) and emits
	// one obs.Replan event to Observer. A different start cannot rescue
	// a convex solve that failed, so there is no retry. Cancellation and
	// infeasible/invalid inputs never degrade — they return immediately.
	FallbackHeuristic bool

	// onIter, when non-nil, runs after every interior-point iteration
	// and aborts the solve with its error: the package's own tests inject
	// solver breakdowns through it.
	onIter func(convex.Result) error
}

// Result reports one allocation.
type Result struct {
	// P holds the continuous per-node allocations, indexed by NodeID.
	P []float64
	// Phi, Ap, Cp are the exact objective values at P under the full
	// cost model: Phi = max(Ap, Cp).
	Phi, Ap, Cp float64
	// Solver carries the convex solver diagnostics as
	// convex.MinimizeEpigraph reports them: X, F (the log of the objective
	// at X), Gap (the duality-gap certificate), Iters, Evals and Status (zero
	// for a cache-replayed allocation: nothing was solved). X is in orbit
	// coordinates — one log-allocation per mdg.Graph.Orbits orbit,
	// numbered by smallest node ID, P[i] = e^{X[orbit[i]]}.
	Solver convex.Result
	// Backend names the path that produced the allocation: BackendAnneal
	// (the exact solve, whichever strategy was selected), BackendHeuristic
	// (fallback), or BackendCache (exact-hit replay).
	Backend Backend
	// CacheOutcome reports the allocation-cache lookup when a cache was
	// configured: "hit", "miss", or "" (no cache).
	CacheOutcome string
}

// problem is the compiled convex program for one (graph, model, procs)
// triple: the expression DAG of Φ, built once, and its box.
type problem struct {
	g            *mdg.Graph
	model        costmodel.Model
	procs        int
	eg           *expr.Graph
	phi          expr.ID
	lower, upper []float64
	// orbit[i] is node i's variable; size[c] counts orbit c's nodes. The
	// box, start point and solver iterates live in orbit space.
	orbit, size []int
}

// Solve runs the convex programming formulation for g on a procs-processor
// system. The graph must be a valid DAG; a unique START/STOP is not
// required for allocation (C_p is taken as the max finish time over all
// nodes, which equals y_STOP when a STOP exists).
//
// The program is convex with a unique minimum (paper §2), so one exact
// solve from the box midpoint finds it: TestSolveIsStartIndependent holds
// three other start points to the midpoint's Φ.
func Solve(g *mdg.Graph, model costmodel.Model, procs int, opts Options) (Result, error) {
	return SolveCtx(context.Background(), g, model, procs, opts)
}

// SolveCtx is Solve with cancellation: ctx is checked before the solve
// starts and after every interior-point iteration, so a cancelled context
// aborts the optimization promptly with ctx.Err().
func SolveCtx(ctx context.Context, g *mdg.Graph, model costmodel.Model, procs int, opts Options) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := opts.Backend.Validate(); err != nil {
		return Result{}, err
	}
	started := time.Now()
	var key string
	var perm []mdg.NodeID
	if opts.Cache != nil {
		// A graph CanonicalHash rejects is one compile rejects below, so
		// hash errors just skip the cache and let compile report them.
		if hash, p, err := g.CanonicalHash(); err == nil {
			perm = p
			key = fmt.Sprintf("%s|p%d", SolveShapeKey(hash, model, opts), procs)
			if e, ok := opts.Cache.Get(key); ok && len(e.PCanon) == g.NumNodes() {
				res := resultFromEntry(e, perm)
				res.Backend, res.CacheOutcome = BackendCache, "hit"
				if opts.Observer != nil {
					opts.Observer.Observe(obs.AllocCache{Outcome: "hit"})
					opts.Observer.Observe(obs.AllocDone{Backend: string(res.Backend), Phi: res.Phi, Seconds: time.Since(started).Seconds()})
				}
				return res, nil
			}
			if opts.Observer != nil {
				opts.Observer.Observe(obs.AllocCache{Outcome: "miss"})
			}
		}
	}
	prob, err := compile(g, model, procs, opts)
	if err != nil {
		// Infeasible procs or a broken graph: the problem is wrong, not
		// the solver, so no retry or heuristic can help.
		return Result{}, err
	}
	res, err := prob.solveWithFallback(ctx, opts)
	if err != nil {
		return res, err
	}
	if key != "" {
		res.CacheOutcome = "miss"
		if isFinite(res.Phi) {
			opts.Cache.Put(key, entryFromResult(res, perm))
		}
	}
	if opts.Observer != nil {
		opts.Observer.Observe(obs.AllocDone{Backend: string(res.Backend), Phi: res.Phi, Seconds: time.Since(started).Seconds()})
	}
	return res, nil
}

// solveWithFallback runs one exact solve on the compiled problem from the
// box midpoint, and with FallbackHeuristic degrades to the greedy
// heuristic when that solve fails.
func (p *problem) solveWithFallback(ctx context.Context, opts Options) (Result, error) {
	res, err := p.solveFrom(ctx, p.midpoint(), opts)
	if err == nil && isFinite(res.Phi) {
		res.Backend = BackendAnneal
		return res, nil
	}
	if !opts.FallbackHeuristic {
		return res, err
	}
	if degradeErr := ctx.Err(); degradeErr != nil {
		return Result{}, degradeErr
	}
	if err != nil && (errors.Is(err, errs.ErrInfeasible) || errors.Is(err, errs.ErrBadGraph)) {
		return Result{}, err
	}
	hr, herr := SolveHeuristic(p.g, p.model, p.procs)
	if herr != nil || !isFinite(hr.Phi) {
		if herr == nil {
			herr = fmt.Errorf("alloc: heuristic Phi = %v", hr.Phi)
		}
		return Result{}, fmt.Errorf("alloc: convex solve failed (%v) and heuristic fallback failed: %w", err, herr)
	}
	hr.Backend = BackendHeuristic
	if opts.Observer != nil {
		opts.Observer.Observe(obs.Replan{Stage: "heuristic-fallback", Procs: p.procs, Phi: hr.Phi})
	}
	return hr, nil
}

// isFinite guards the degradation path against NaN/Inf objectives a
// broken solve can report without erroring.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// midpoint is the start point of a cold solve: the middle of the box
// [0, ln p] in every orbit coordinate.
func (p *problem) midpoint() []float64 {
	x0 := make([]float64, len(p.upper))
	for i := range x0 {
		x0[i] = p.upper[i] * 0.5
	}
	return x0
}

// compile builds the expression DAG for the Φ objective once, over the
// automorphism orbits of g (mdg.Graph.Orbits).
//
// Φ is convex and invariant under every automorphism, so averaging any
// point over the automorphism group never raises it: a minimum exists
// with p_i equal across each orbit, and the program is solved on that
// subspace, one variable per orbit. Each orbit's T and y are built once,
// from its first member in topological order; A_p weighs each orbit's
// T·p by its size; and every max keeps one child per original
// predecessor and per sink, so the objective is the full program's
// restricted to the subspace. Where g has no automorphism this is the
// full program, node for node.
func compile(g *mdg.Graph, model costmodel.Model, procs int, opts Options) (*problem, error) {
	if procs < 1 {
		return nil, fmt.Errorf("alloc: %w: procs = %d, want >= 1", errs.ErrInfeasible, procs)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("alloc: invalid MDG: %w", err)
	}
	n := g.NumNodes()
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	orbit, err := g.Orbits()
	if err != nil {
		return nil, fmt.Errorf("alloc: invalid MDG: %w", err)
	}
	k := 0
	for _, c := range orbit {
		k = max(k, c+1)
	}
	// rep[c] is orbit c's first member in topological order.
	rep := make([]mdg.NodeID, k)
	size := make([]int, k)
	for _, v := range order {
		c := orbit[v]
		if size[c] == 0 {
			rep[c] = v
		}
		size[c]++
	}
	isRep := func(v mdg.NodeID) bool { return rep[orbit[v]] == v }

	objTP := model.Transfer
	if opts.IgnoreTransfers {
		objTP = costmodel.TransferParams{}
	}

	// --- Build the objective expression DAG ---------------------------
	var eg expr.Graph
	// Per-edge cost components, by edge index, for the edges a
	// representative's T or y reads; edge reads the graph's own index.
	ne := len(g.Edges)
	ids := make([]expr.ID, 3*ne+3*k)
	sendE, netE, recvE := ids[:ne], ids[ne:2*ne], ids[2*ne:3*ne]
	for i, e := range g.Edges {
		if isRep(e.From) || isRep(e.To) {
			sendE[i], netE[i], recvE[i] = costmodel.EdgeTransferExprs(&eg, objTP, e, orbit[e.From], orbit[e.To])
		}
	}
	edge := func(from, to mdg.NodeID) int {
		i, _ := g.EdgeIndex(from, to)
		return i
	}
	// Orbit weights T_c; terms is the scratch every Sum and max below
	// copies its children from.
	weight, areas, y := ids[3*ne:3*ne+k], ids[3*ne+k:3*ne+2*k], ids[3*ne+2*k:]
	var terms []expr.ID
	for c, v := range rep {
		terms = append(terms[:0], costmodel.ProcessingExpr(&eg, costmodel.LoopParams{
			Alpha: g.Nodes[v].Alpha, Tau: g.Nodes[v].Tau,
		}, c))
		for _, m := range g.Preds(v) {
			terms = append(terms, recvE[edge(m, v)])
		}
		for _, s := range g.Succs(v) {
			terms = append(terms, sendE[edge(v, s)])
		}
		weight[c] = eg.Sum(terms...)
	}
	// A_p = (1/p)·Σ_c |c|·T_c·p_c.
	for c := range areas {
		areas[c] = eg.Scale(float64(size[c]), eg.Mul(weight[c], eg.Var(c)))
	}
	ap := eg.Scale(1/float64(procs), eg.Sum(areas...))
	// C_p via the y recursion over representatives in topological order:
	// a predecessor's orbit has a representative no later than it.
	for _, v := range order {
		if !isRep(v) {
			continue
		}
		preds := g.Preds(v)
		if len(preds) == 0 {
			y[orbit[v]] = weight[orbit[v]]
			continue
		}
		terms = terms[:0]
		for _, m := range preds {
			terms = append(terms, eg.Sum(y[orbit[m]], netE[edge(m, v)]))
		}
		y[orbit[v]] = eg.Sum(eg.SmoothMax(terms...), weight[orbit[v]])
	}
	terms = terms[:0] // the sinks
	for i := 0; i < n; i++ {
		if len(g.Succs(mdg.NodeID(i))) == 0 {
			terms = append(terms, y[orbit[i]])
		}
	}
	cp := eg.SmoothMax(terms...)
	phi := eg.SmoothMax(ap, cp)

	lower := make([]float64, k)
	upper := make([]float64, k)
	for i := range upper {
		upper[i] = math.Log(float64(procs))
	}
	return &problem{
		g: g, model: model, procs: procs,
		eg: &eg, phi: phi,
		lower: lower, upper: upper,
		orbit: orbit, size: size,
	}, nil
}

// lift expands an orbit-space solution to the per-node allocation
// p_i = e^{x_orbit(i)}.
func (p *problem) lift(x []float64) []float64 {
	out := make([]float64, len(p.orbit))
	for i, c := range p.orbit {
		out[i] = math.Exp(x[c])
	}
	return out
}

// solveFrom compiles the program to epigraph form, solves it exactly from
// x0 by the interior-point method and re-evaluates the exact Φ/A_p/C_p at
// the solution under the full cost model. After every iteration the hook
// emits one obs.SolverStage to the observer and polls ctx.
func (p *problem) solveFrom(ctx context.Context, x0 []float64, opts Options) (Result, error) {
	ep, err := p.eg.Epigraph(p.phi)
	if errors.Is(err, expr.ErrZeroRoot) {
		// Every cost is zero: any allocation is optimal, Φ = 0.
		return p.scored(convex.Result{X: x0, Status: convex.GapConverged})
	}
	if err != nil {
		return Result{}, fmt.Errorf("alloc: %w", err)
	}
	evals := 0
	hook := func(r convex.Result) error {
		if o := opts.Observer; o != nil {
			o.Observe(obs.SolverStage{
				Stage: r.Iters - 1, Gap: r.Gap,
				Phi: math.Exp(r.F), Iters: 1, Evals: r.Evals - evals,
				Status: r.Status.String(),
			})
		}
		evals = r.Evals
		if opts.onIter != nil {
			if err := opts.onIter(r); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	sol, err := convex.MinimizeEpigraph(ep, p.lower, p.upper, x0, hook)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return Result{}, ctxErr
		}
		return Result{}, fmt.Errorf("alloc: solver failed: %w", err)
	}
	return p.scored(sol)
}

// scored lifts a solution to per-node allocations and scores them with
// the exact Φ/A_p/C_p of the full cost model.
func (p *problem) scored(sol convex.Result) (Result, error) {
	res := Result{P: p.lift(sol.X), Solver: sol}
	var err error
	res.Phi, res.Ap, res.Cp, err = p.model.Phi(p.g, res.P, p.procs)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// SPMD returns the pure data-parallel allocation — every node on all
// procs processors — with its exact Φ/A_p/C_p, the baseline the paper's
// Figure 8 compares against.
func SPMD(g *mdg.Graph, model costmodel.Model, procs int) (Result, error) {
	if procs < 1 {
		return Result{}, fmt.Errorf("alloc: %w: procs = %d, want >= 1", errs.ErrInfeasible, procs)
	}
	if err := g.Validate(); err != nil {
		return Result{}, fmt.Errorf("alloc: invalid MDG: %w", err)
	}
	res := Result{P: make([]float64, g.NumNodes())}
	for i := range res.P {
		res.P[i] = float64(procs)
	}
	var err error
	res.Phi, res.Ap, res.Cp, err = model.Phi(g, res.P, procs)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}
