package alloc

import (
	"context"
	"fmt"
	"math"

	"paradigm/internal/costmodel"
	"paradigm/internal/errs"
	"paradigm/internal/expr"
	"paradigm/internal/mdg"
)

// refCompile is compile as it stood before the orbit reduction: one
// variable per node, every node's T and y built. It is the reference the
// quotient program is held to (orbits_differential_test.go): bit for bit
// where the graph has no symmetry, no worse in Φ where it has.
func refCompile(g *mdg.Graph, model costmodel.Model, procs int, opts Options) (*problem, error) {
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

	objTP := model.Transfer
	if opts.IgnoreTransfers {
		objTP = costmodel.TransferParams{}
	}

	var eg expr.Graph
	sendE := make([]expr.ID, len(g.Edges))
	netE := make([]expr.ID, len(g.Edges))
	recvE := make([]expr.ID, len(g.Edges))
	edgeIdx := make(map[[2]mdg.NodeID]int, len(g.Edges))
	for i, e := range g.Edges {
		sendE[i], netE[i], recvE[i] = costmodel.EdgeTransferExprs(&eg, objTP, e, int(e.From), int(e.To))
		edgeIdx[[2]mdg.NodeID{e.From, e.To}] = i
	}
	weight := make([]expr.ID, n)
	for i := 0; i < n; i++ {
		id := mdg.NodeID(i)
		terms := []expr.ID{costmodel.ProcessingExpr(&eg, costmodel.LoopParams{
			Alpha: g.Nodes[i].Alpha, Tau: g.Nodes[i].Tau,
		}, i)}
		for _, m := range g.Preds(id) {
			terms = append(terms, recvE[edgeIdx[[2]mdg.NodeID{m, id}]])
		}
		for _, s := range g.Succs(id) {
			terms = append(terms, sendE[edgeIdx[[2]mdg.NodeID{id, s}]])
		}
		weight[i] = eg.Sum(terms...)
	}
	areas := make([]expr.ID, n)
	for i := 0; i < n; i++ {
		areas[i] = eg.Mul(weight[i], eg.Var(i))
	}
	ap := eg.Scale(1/float64(procs), eg.Sum(areas...))
	y := make([]expr.ID, n)
	for _, v := range order {
		preds := g.Preds(v)
		if len(preds) == 0 {
			y[v] = weight[v]
			continue
		}
		arrivals := make([]expr.ID, 0, len(preds))
		for _, m := range preds {
			ei := edgeIdx[[2]mdg.NodeID{m, v}]
			arrivals = append(arrivals, eg.Sum(y[m], netE[ei]))
		}
		y[v] = eg.Sum(eg.SmoothMax(arrivals...), weight[v])
	}
	sinks := make([]expr.ID, 0, 1)
	for i := 0; i < n; i++ {
		if len(g.Succs(mdg.NodeID(i))) == 0 {
			sinks = append(sinks, y[i])
		}
	}
	cp := eg.SmoothMax(sinks...)
	phi := eg.SmoothMax(ap, cp)

	lower := make([]float64, n)
	upper := make([]float64, n)
	for i := range upper {
		upper[i] = math.Log(float64(procs))
	}
	orbit, size := make([]int, n), make([]int, n)
	for i := range orbit {
		orbit[i], size[i] = i, 1
	}
	return &problem{
		g: g, model: model, procs: procs,
		eg: &eg, phi: phi,
		lower: lower, upper: upper,
		orbit: orbit, size: size,
	}, nil
}

// refSolve is the cacheless SolveCtx path over refCompile's program.
func refSolve(g *mdg.Graph, model costmodel.Model, procs int, opts Options) (Result, error) {
	prob, err := refCompile(g, model, procs, opts)
	if err != nil {
		return Result{}, err
	}
	return prob.solveWithFallback(context.Background(), opts)
}
