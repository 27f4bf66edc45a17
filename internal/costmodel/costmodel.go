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
// Every component is exposed three ways: plain float64 evaluation (used by
// the scheduler, the bound calculators and the experiment harness), as
// log-space expression-DAG builders (used by the convex allocator, with
// max smoothed), and as posynomial values (used by tests to verify Lemmas
// 1 and 2 mechanically). The 2D components and the processing cost are
// posynomials outright; the 1D components are generalized posynomials — a
// max of two posynomial branches — which preserves log-space convexity,
// the property the convex programming formulation needs.
package costmodel

import (
	"fmt"
	"math"

	"paradigm/internal/expr"
	"paradigm/internal/mdg"
	"paradigm/internal/posy"
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

// Transfer evaluates Equations 2 or 3 for one array of the given byte
// length moving from p_i sending to p_j receiving processors.
func (tp TransferParams) Transfer(kind mdg.TransferKind, bytes int, pi, pj float64) TransferCost {
	if pi < 1 || pj < 1 {
		panic(fmt.Sprintf("costmodel: processor counts (%v,%v) must be >= 1", pi, pj))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("costmodel: negative transfer size %d", bytes))
	}
	switch kind {
	case mdg.TransferG2L, mdg.TransferL2G, mdg.TransferG2G:
		return tp.gridTransfer(kind, bytes, pi, pj)
	}
	l := float64(bytes)
	switch kind {
	case mdg.Transfer1D:
		mx := math.Max(pi, pj)
		return TransferCost{
			Send: mx/pi*tp.Tss + l/pi*tp.Tps,
			Net:  l / mx * tp.Tn,
			Recv: mx/pj*tp.Tsr + l/pj*tp.Tpr,
		}
	case mdg.Transfer2D:
		return TransferCost{
			Send: pj*tp.Tss + l/pi*tp.Tps,
			Net:  l / (pi * pj) * tp.Tn,
			Recv: pi*tp.Tsr + l/pj*tp.Tpr,
		}
	default:
		panic(fmt.Sprintf("costmodel: unknown transfer kind %v", kind))
	}
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

// --- Expression-DAG builders (allocator path) ------------------------------

// ProcessingExpr builds t^C as an expression over log-variable v.
func ProcessingExpr(eg *expr.Graph, lp LoopParams, v int) expr.ID {
	return eg.Sum(
		eg.Const(lp.Alpha*lp.Tau),
		eg.Monomial((1-lp.Alpha)*lp.Tau, []int{v}, []float64{-1}),
	)
}

// ProcessingTimesPExpr builds t^C·p (the A_p contribution of the
// processing cost): τα·p + τ(1-α).
func ProcessingTimesPExpr(eg *expr.Graph, lp LoopParams, v int) expr.ID {
	return eg.Sum(
		eg.Monomial(lp.Alpha*lp.Tau, []int{v}, []float64{1}),
		eg.Const((1-lp.Alpha)*lp.Tau),
	)
}

// TransferExprs builds the (send, net, recv) components of one transfer as
// expressions over the log-variables vi (sender) and vj (receiver).
// max(p_i, p_j) becomes a SmoothMax of the two variables, which the
// solver treats as the exact max.
func TransferExprs(eg *expr.Graph, tp TransferParams, kind mdg.TransferKind, bytes int, vi, vj int) (send, net, recv expr.ID) {
	switch kind {
	case mdg.TransferG2L, mdg.TransferL2G, mdg.TransferG2G:
		return gridTransferExprs(eg, tp, kind, bytes, vi, vj)
	}
	l := float64(bytes)
	switch kind {
	case mdg.Transfer1D:
		mx := eg.SmoothMax(eg.Var(vi), eg.Var(vj))
		send = eg.Sum(
			eg.Mul(mx, eg.Monomial(tp.Tss, []int{vi}, []float64{-1})),
			eg.Monomial(l*tp.Tps, []int{vi}, []float64{-1}),
		)
		// l·t_n/max(pi,pj): max in the denominator is handled with the
		// min-form equivalent 1/max(a,b) = min(1/a, 1/b); since t_n >= 0
		// and the term must stay convex, we use the posynomial upper
		// bound l·t_n·min(...) <= l·t_n/pi. On the CM-5 t_n = 0 so the
		// term vanishes; for general machines we conservatively charge
		// the sender-side denominator, which upper-bounds the true delay
		// and keeps the formulation convex.
		net = eg.Monomial(l*tp.Tn, []int{vi}, []float64{-1})
		recv = eg.Sum(
			eg.Mul(mx, eg.Monomial(tp.Tsr, []int{vj}, []float64{-1})),
			eg.Monomial(l*tp.Tpr, []int{vj}, []float64{-1}),
		)
	case mdg.Transfer2D:
		send = eg.Sum(
			eg.Monomial(tp.Tss, []int{vj}, []float64{1}),
			eg.Monomial(l*tp.Tps, []int{vi}, []float64{-1}),
		)
		net = eg.Monomial(l*tp.Tn, []int{vi, vj}, []float64{-1, -1})
		recv = eg.Sum(
			eg.Monomial(tp.Tsr, []int{vi}, []float64{1}),
			eg.Monomial(l*tp.Tpr, []int{vj}, []float64{-1}),
		)
	default:
		panic(fmt.Sprintf("costmodel: unknown transfer kind %v", kind))
	}
	return send, net, recv
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

// --- Posynomial forms (Lemma 1 and Lemma 2 verification) -------------------

// ProcessingPosy returns t^C as a posynomial in variable "p" (Lemma 1).
func ProcessingPosy(lp LoopParams) posy.Posynomial {
	return posy.Const(lp.Alpha * lp.Tau).
		Add(posy.Mono((1-lp.Alpha)*lp.Tau, map[string]float64{"p": -1}))
}

// ProcessingTimesPPosy returns t^C·p as a posynomial in "p" (the second
// condition of Section 2).
func ProcessingTimesPPosy(lp LoopParams) posy.Posynomial {
	return ProcessingPosy(lp).MulMono(1, map[string]float64{"p": 1})
}

// Transfer2DPosy returns the 2D (send, net, recv) components as
// posynomials in "pi" and "pj" (Lemma 2, Equation 3).
func Transfer2DPosy(tp TransferParams, bytes int) (send, net, recv posy.Posynomial) {
	l := float64(bytes)
	send = posy.Mono(tp.Tss, map[string]float64{"pj": 1}).
		Add(posy.Mono(l*tp.Tps, map[string]float64{"pi": -1}))
	net = posy.Mono(l*tp.Tn, map[string]float64{"pi": -1, "pj": -1})
	recv = posy.Mono(tp.Tsr, map[string]float64{"pi": 1}).
		Add(posy.Mono(l*tp.Tpr, map[string]float64{"pj": -1}))
	return
}

// Transfer1DPosyBranches returns, for each 1D component, the pair of
// posynomial branches whose pointwise max is the component: branch A
// assumes max(p_i,p_j) = p_i, branch B assumes max(p_i,p_j) = p_j. A max
// of posynomials is a generalized posynomial — still convex in log space —
// which is the precise sense in which Lemma 2 holds for the 1D case.
func Transfer1DPosyBranches(tp TransferParams, bytes int) (sendA, sendB, netA, netB, recvA, recvB posy.Posynomial) {
	l := float64(bytes)
	// Send: max(pi,pj)/pi·tss + l/pi·tps.
	sendA = posy.Const(tp.Tss).Add(posy.Mono(l*tp.Tps, map[string]float64{"pi": -1}))
	sendB = posy.Mono(tp.Tss, map[string]float64{"pi": -1, "pj": 1}).
		Add(posy.Mono(l*tp.Tps, map[string]float64{"pi": -1}))
	// Net: l·tn/max(pi,pj); branches use the respective denominators.
	netA = posy.Mono(l*tp.Tn, map[string]float64{"pi": -1})
	netB = posy.Mono(l*tp.Tn, map[string]float64{"pj": -1})
	// Recv: max(pi,pj)/pj·tsr + l/pj·tpr.
	recvA = posy.Mono(tp.Tsr, map[string]float64{"pi": 1, "pj": -1}).
		Add(posy.Mono(l*tp.Tpr, map[string]float64{"pj": -1}))
	recvB = posy.Const(tp.Tsr).Add(posy.Mono(l*tp.Tpr, map[string]float64{"pj": -1}))
	return
}
