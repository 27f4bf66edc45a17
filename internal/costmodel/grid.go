package costmodel

import (
	"fmt"
	"math"

	"paradigm/internal/expr"
	"paradigm/internal/mdg"
	"paradigm/internal/posy"
)

// This file extends the Section 4 cost model to blocked 2D (grid)
// distributions — the generalization the paper says it is "in the process
// of extending our cost functions" toward. A grid node uses a near-square
// √p×√p processor grid (internal/dist.GridShape), so the message-count
// analysis of the 1D/2D cases generalizes with half-integer exponents:
//
//   G2L (grid p_i → linear p_j):
//     each sender's block spans 1/√p_i of the distributed dimension and
//     intersects max(1, p_j/√p_i) destination strips;
//     each receiver's strip intersects √p_i·max(1, √p_i/p_j) grid blocks:
//       t^S = max(1, p_j·p_i^-½)·t_ss + (L/p_i)·t_ps
//       t^R = max(p_i^½, p_i/p_j)·t_sr + (L/p_j)·t_pr
//
//   L2G (linear p_i → grid p_j): the mirror image:
//       t^S = max(p_j^½, p_j/p_i)·t_ss + (L/p_i)·t_ps
//       t^R = max(1, p_i·p_j^-½)·t_sr + (L/p_j)·t_pr
//
//   G2G (grid p_i → grid p_j): row and column overlap factors multiply
//   back into the familiar 1D form:
//       t^S = (max(p_i,p_j)/p_i)·t_ss + (L/p_i)·t_ps
//       t^R = (max(p_i,p_j)/p_j)·t_sr + (L/p_j)·t_pr
//
// The network component keeps the 1D form t^D = L/max(p_i,p_j)·t_n.
// Every component is a max of monomials with rational exponents — a
// generalized posynomial — so log-space convexity, and with it the
// global-optimality guarantee of the allocation step, is preserved.

// gridTransfer evaluates the extended kinds (float path).
func (tp TransferParams) gridTransfer(kind mdg.TransferKind, bytes int, pi, pj float64) TransferCost {
	l := float64(bytes)
	sqPi := math.Sqrt(pi)
	sqPj := math.Sqrt(pj)
	base := TransferCost{
		Net: l / math.Max(pi, pj) * tp.Tn,
	}
	switch kind {
	case mdg.TransferG2L:
		base.Send = math.Max(1, pj/sqPi)*tp.Tss + l/pi*tp.Tps
		base.Recv = math.Max(sqPi, pi/pj)*tp.Tsr + l/pj*tp.Tpr
	case mdg.TransferL2G:
		base.Send = math.Max(sqPj, pj/pi)*tp.Tss + l/pi*tp.Tps
		base.Recv = math.Max(1, pi/sqPj)*tp.Tsr + l/pj*tp.Tpr
	case mdg.TransferG2G:
		base.Send = math.Max(pi, pj)/pi*tp.Tss + l/pi*tp.Tps
		base.Recv = math.Max(pi, pj)/pj*tp.Tsr + l/pj*tp.Tpr
	default:
		panic(fmt.Sprintf("costmodel: not a grid transfer kind: %v", kind))
	}
	return base
}

// gridTransferExprs builds the extended kinds as log-space expressions
// (allocator path). Max terms become SmoothMax of monomials; the network
// term uses the sender-denominator upper bound as in the 1D case.
func gridTransferExprs(eg *expr.Graph, tp TransferParams, kind mdg.TransferKind, bytes int, vi, vj int) (send, net, recv expr.ID) {
	l := float64(bytes)
	mono := func(c float64, expI, expJ float64) expr.ID {
		return eg.Monomial(c, []int{vi, vj}, []float64{expI, expJ})
	}
	net = eg.Monomial(l*tp.Tn, []int{vi}, []float64{-1})
	switch kind {
	case mdg.TransferG2L:
		send = eg.Sum(
			eg.Scale(tp.Tss, eg.SmoothMax(eg.Const(1), mono(1, -0.5, 1))),
			mono(l*tp.Tps, -1, 0),
		)
		recv = eg.Sum(
			eg.Scale(tp.Tsr, eg.SmoothMax(mono(1, 0.5, 0), mono(1, 1, -1))),
			mono(l*tp.Tpr, 0, -1),
		)
	case mdg.TransferL2G:
		send = eg.Sum(
			eg.Scale(tp.Tss, eg.SmoothMax(mono(1, 0, 0.5), mono(1, -1, 1))),
			mono(l*tp.Tps, -1, 0),
		)
		recv = eg.Sum(
			eg.Scale(tp.Tsr, eg.SmoothMax(eg.Const(1), mono(1, 1, -0.5))),
			mono(l*tp.Tpr, 0, -1),
		)
	case mdg.TransferG2G:
		mx := eg.SmoothMax(eg.Var(vi), eg.Var(vj))
		send = eg.Sum(
			eg.Mul(mx, mono(tp.Tss, -1, 0)),
			mono(l*tp.Tps, -1, 0),
		)
		recv = eg.Sum(
			eg.Mul(mx, mono(tp.Tsr, 0, -1)),
			mono(l*tp.Tpr, 0, -1),
		)
	default:
		panic(fmt.Sprintf("costmodel: not a grid transfer kind: %v", kind))
	}
	return send, net, recv
}

// GridPosyBranches returns, for each extended-kind component, the
// posynomial branches whose pointwise max is the component — the
// generalized-posynomial witness used by the Lemma-style tests.
func GridPosyBranches(tp TransferParams, kind mdg.TransferKind, bytes int) (sendBranches, recvBranches []posy.Posynomial) {
	l := float64(bytes)
	m := func(c float64, ei, ej float64) posy.Posynomial {
		return posy.Mono(c, map[string]float64{"pi": ei, "pj": ej})
	}
	perByteS := m(l*tp.Tps, -1, 0)
	perByteR := m(l*tp.Tpr, 0, -1)
	switch kind {
	case mdg.TransferG2L:
		sendBranches = []posy.Posynomial{
			posy.Const(tp.Tss).Add(perByteS),
			m(tp.Tss, -0.5, 1).Add(perByteS),
		}
		recvBranches = []posy.Posynomial{
			m(tp.Tsr, 0.5, 0).Add(perByteR),
			m(tp.Tsr, 1, -1).Add(perByteR),
		}
	case mdg.TransferL2G:
		sendBranches = []posy.Posynomial{
			m(tp.Tss, 0, 0.5).Add(perByteS),
			m(tp.Tss, -1, 1).Add(perByteS),
		}
		recvBranches = []posy.Posynomial{
			posy.Const(tp.Tsr).Add(perByteR),
			m(tp.Tsr, 1, -0.5).Add(perByteR),
		}
	case mdg.TransferG2G:
		sendBranches = []posy.Posynomial{
			posy.Const(tp.Tss).Add(perByteS),
			m(tp.Tss, -1, 1).Add(perByteS),
		}
		recvBranches = []posy.Posynomial{
			posy.Const(tp.Tsr).Add(perByteR),
			m(tp.Tsr, 1, -1).Add(perByteR),
		}
	default:
		panic(fmt.Sprintf("costmodel: not a grid transfer kind: %v", kind))
	}
	return sendBranches, recvBranches
}
