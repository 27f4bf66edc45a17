// Package costmodel implements the mathematical cost models of Section 4.
//
// Processing cost follows Amdahl's law (Equation 1):
//
//	t^C_i = (α_i + (1-α_i)/p_i)·τ_i
//
// Data transfer between node i (p_i processors) and node j (p_j
// processors) has a sending, a network and a receiving component. For 1D
// transfers (ROW2ROW / COL2COL, Equation 2):
//
//	t^S = max(p_i,p_j)/p_i·t_ss + L/p_i·t_ps
//	t^D = L/max(p_i,p_j)·t_n
//	t^R = max(p_i,p_j)/p_j·t_sr + L/p_j·t_pr
//
// and for 2D transfers (ROW2COL / COL2ROW, Equation 3):
//
//	t^S = p_j·t_ss + L/p_i·t_ps
//	t^D = L/(p_i·p_j)·t_n
//	t^R = p_i·t_sr + L/p_j·t_pr
//
// and, extending the paper, for the grid kinds. Each component is declared
// once, as rows of monomials in p_i and p_j (rows.go), read by plain
// float64 evaluation (the scheduler, bound calculators and experiments)
// and by log-space expression builders (the convex allocator). Every
// component is a generalized posynomial — a sum of maxes of monomials,
// convex in log space, as the convex formulation needs — except the
// network cost L/max(p_i,p_j)·t_n, which the allocator charges by its
// upper bound L/p_i·t_n (a relaxed row).
package costmodel

import (
	"fmt"
	"math"

	"paradigm/internal/expr"
	"paradigm/internal/mdg"
)

// LoopParams are the fitted Amdahl parameters of one loop (one Table 1 row).
type LoopParams struct {
	Alpha float64 // serial fraction α ∈ [0,1]
	Tau   float64 // single-processor execution time τ (seconds)
}

// Processing evaluates Equation 1 at p processors.
func (lp LoopParams) Processing(p float64) float64 {
	if p < 1 {
		panic(fmt.Sprintf("costmodel: processor count %v < 1", p))
	}
	return (lp.Alpha + (1-lp.Alpha)/p) * lp.Tau
}

// TransferParams are the fitted messaging parameters (the Table 2 row).
type TransferParams struct {
	Tss float64 // send startup (s/message)
	Tps float64 // send per byte (s/B)
	Tsr float64 // receive startup (s/message)
	Tpr float64 // receive per byte (s/B)
	Tn  float64 // network per byte (s/B); 0 on the CM-5
}

// TransferCost is one evaluated (send, network, receive) triple.
type TransferCost struct {
	Send float64 // t^S: accounted into the sending node's weight
	Net  float64 // t^D: the edge weight
	Recv float64 // t^R: accounted into the receiving node's weight
}

// Transfer evaluates one array's cost (Equation 2, 3 or a grid kind's
// rows): bytes moving from p_i sending to p_j receiving processors.
func (tp TransferParams) Transfer(kind mdg.TransferKind, bytes int, pi, pj float64) TransferCost {
	if pi < 1 || pj < 1 {
		panic(fmt.Sprintf("costmodel: processor counts (%v,%v) must be >= 1", pi, pj))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("costmodel: negative transfer size %d", bytes))
	}
	coefs := tp.coefs()
	return costOf(kind).eval(coefs[:], float64(bytes), pi, pj)
}

// EdgeTransfer sums the transfer costs of every array on an edge.
func (tp TransferParams) EdgeTransfer(e mdg.Edge, pi, pj float64) TransferCost {
	var total TransferCost
	for _, tr := range e.Transfers {
		c := tp.Transfer(tr.Kind, tr.Bytes, pi, pj)
		total.Send += c.Send
		total.Net += c.Net
		total.Recv += c.Recv
	}
	return total
}

// Model binds fitted transfer parameters to MDG weight evaluation. Node
// Amdahl parameters travel on the MDG nodes themselves.
type Model struct {
	Transfer TransferParams
}

// NodeWeight computes T_i of Section 2 — receive costs from all
// predecessors, the processing cost, and send costs to all successors —
// under the allocation p (indexed by NodeID).
func (m Model) NodeWeight(g *mdg.Graph, i mdg.NodeID, p []float64) float64 {
	w := LoopParams{Alpha: g.Nodes[i].Alpha, Tau: g.Nodes[i].Tau}.Processing(p[i])
	for _, pr := range g.Preds(i) {
		e, _ := g.EdgeBetween(pr, i)
		w += m.Transfer.EdgeTransfer(e, p[pr], p[i]).Recv
	}
	for _, s := range g.Succs(i) {
		e, _ := g.EdgeBetween(i, s)
		w += m.Transfer.EdgeTransfer(e, p[i], p[s]).Send
	}
	return w
}

// EdgeDelay computes the edge weight t^D_ij under the allocation p.
func (m Model) EdgeDelay(g *mdg.Graph, e mdg.Edge, p []float64) float64 {
	return m.Transfer.EdgeTransfer(e, p[e.From], p[e.To]).Net
}

// AverageFinishTime computes A_p of Section 2: (1/procs)·Σ T_i·p_i, the
// processor-time-area lower bound.
func (m Model) AverageFinishTime(g *mdg.Graph, p []float64, procs int) float64 {
	s := 0.0
	for i := range g.Nodes {
		s += m.NodeWeight(g, mdg.NodeID(i), p) * p[i]
	}
	return s / float64(procs)
}

// CriticalPathTime computes C_p of Section 2 under the allocation p.
func (m Model) CriticalPathTime(g *mdg.Graph, p []float64) (float64, error) {
	_, cp, err := g.CriticalPath(
		func(i mdg.NodeID) float64 { return m.NodeWeight(g, i, p) },
		func(e mdg.Edge) float64 { return m.EdgeDelay(g, e, p) },
	)
	return cp, err
}

// Phi evaluates the exact (hard-max) objective Φ = max(A_p, C_p).
func (m Model) Phi(g *mdg.Graph, p []float64, procs int) (phi, ap, cp float64, err error) {
	ap = m.AverageFinishTime(g, p, procs)
	cp, err = m.CriticalPathTime(g, p)
	if err != nil {
		return 0, 0, 0, err
	}
	return math.Max(ap, cp), ap, cp, nil
}

// ProcessingExpr builds t^C as an expression over log-variable v.
func ProcessingExpr(eg *expr.Graph, lp LoopParams, v int) expr.ID {
	coefs := lp.coefs()
	var t [len(processingRows)]expr.ID
	for k, r := range processingRows {
		t[k] = r.monomial(eg, coefs[r.coef], v, v)
	}
	return eg.Sum(t[:]...)
}

// TransferExprs builds the (send, net, recv) components of one transfer as
// expressions over the log-variables vi (sender) and vj (receiver).
// Each max group becomes a SmoothMax of its members, which the solver
// treats as the exact max; the relaxed network row charges its upper
// bound.
func TransferExprs(eg *expr.Graph, tp TransferParams, kind mdg.TransferKind, bytes int, vi, vj int) (send, net, recv expr.ID) {
	coefs := tp.coefs()
	c := costOf(kind).exprs(eg, coefs[:], float64(bytes), vi, vj)
	return c[tS], c[tD], c[tR]
}

// EdgeTransferExprs sums TransferExprs over every array on the edge,
// returning zero constants for transfer-free edges.
func EdgeTransferExprs(eg *expr.Graph, tp TransferParams, e mdg.Edge, vi, vj int) (send, net, recv expr.ID) {
	switch len(e.Transfers) {
	case 0:
		z := eg.Const(0)
		return z, z, z
	case 1:
		tr := e.Transfers[0]
		return TransferExprs(eg, tp, tr.Kind, tr.Bytes, vi, vj)
	}
	n := len(e.Transfers)
	ids := make([]expr.ID, 3*n)
	for k, tr := range e.Transfers {
		ids[k], ids[n+k], ids[2*n+k] = TransferExprs(eg, tp, tr.Kind, tr.Bytes, vi, vj)
	}
	return eg.Sum(ids[:n]...), eg.Sum(ids[n : 2*n]...), eg.Sum(ids[2*n:]...)
}
