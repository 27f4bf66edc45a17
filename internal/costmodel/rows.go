package costmodel

import (
	"fmt"
	"math"

	"paradigm/internal/expr"
	"paradigm/internal/mdg"
)

// Equations 1–3 are declared here once, as rows of monomials: Transfer
// evaluates them, TransferExprs and ProcessingExpr emit them as
// expressions.
//
// The grid kinds extend Section 4 to blocked 2D distributions, the
// generalization the paper says it is "in the process of extending our
// cost functions" toward. A grid node uses a near-square √p×√p processor
// grid (dist.GridShape). A G2L sender's block spans 1/√p_i of the
// distributed dimension and meets max(1, p_j/√p_i) destination strips; a
// receiver's strip meets √p_i·max(1, √p_i/p_j) grid blocks. L2G is the
// mirror image, and G2G's row and column overlap factors multiply back
// into the 1D form. Every grid kind keeps the 1D network term.

const (
	tS, tD, tR = 0, 1, 2 // a row's component: t^S, t^D or t^R
	// A row's coefficient: a TransferParams field (TransferParams.coefs),
	// or α·τ and (1−α)·τ for processing (LoopParams.coefs).
	tss, tps, tsr, tpr, tn = 0, 1, 2, 3, 4
	serial, parallel       = 0, 1
)

// A row is one term of a cost component: the monomial c·p_i^ei·p_j^ej,
// times max_k p_i^a_k·p_j^b_k over the kind's max group max when max > 0,
// with c the coefficient coef, times the byte length L when perByte.
// Coefficients are nonnegative parameters and exponents finite reals, so a
// component, a sum of rows, is a sum of maxes of monomials: a generalized
// posynomial, convex in x = ln p (Lemmas 1–2). The network cost
// L·t_n/max(p_i,p_j) divides by a max, which no such sum does; its relaxed
// row is the upper bound L·t_n/p_i. Transfer divides by the max, and the
// allocator's expressions charge the row as written.
type row struct {
	comp, coef, max  int
	perByte, relaxed bool
	ei, ej           float64
}

// pow is the monomial p_i^ei·p_j^ej, a member of a max group.
type pow struct{ ei, ej float64 }

// kindCost declares one transfer kind: at most maxGroups max groups, and
// its rows in the order TransferExprs emits them, a component's adjacent.
type kindCost struct {
	maxes [][]pow
	rows  []row
}

const maxGroups = 2

// oneD is Equation 2; G2G shares it.
var oneD = kindCost{
	maxes: [][]pow{{{1, 0}, {0, 1}}}, // max(p_i, p_j)
	rows: []row{
		{comp: tS, coef: tss, ei: -1, max: 1},
		{comp: tS, coef: tps, perByte: true, ei: -1},
		{comp: tD, coef: tn, perByte: true, ei: -1, relaxed: true},
		{comp: tR, coef: tsr, ej: -1, max: 1},
		{comp: tR, coef: tpr, perByte: true, ej: -1},
	},
}

// transferKinds holds one declaration per transfer kind mdg accepts.
var transferKinds = [...]kindCost{
	mdg.Transfer1D: oneD,
	mdg.Transfer2D: {rows: []row{ // Equation 3
		{comp: tS, coef: tss, ej: 1},
		{comp: tS, coef: tps, perByte: true, ei: -1},
		{comp: tD, coef: tn, perByte: true, ei: -1, ej: -1},
		{comp: tR, coef: tsr, ei: 1},
		{comp: tR, coef: tpr, perByte: true, ej: -1},
	}},
	mdg.TransferG2L: {
		maxes: [][]pow{{{0, 0}, {-0.5, 1}}, {{0.5, 0}, {1, -1}}}, // max(1, p_j·p_i^-½), max(p_i^½, p_i/p_j)
		rows: []row{
			{comp: tD, coef: tn, perByte: true, ei: -1, relaxed: true},
			{comp: tS, coef: tss, max: 1},
			{comp: tS, coef: tps, perByte: true, ei: -1},
			{comp: tR, coef: tsr, max: 2},
			{comp: tR, coef: tpr, perByte: true, ej: -1},
		},
	},
	mdg.TransferL2G: {
		maxes: [][]pow{{{0, 0.5}, {-1, 1}}, {{0, 0}, {1, -0.5}}}, // max(p_j^½, p_j/p_i), max(1, p_i·p_j^-½)
		rows: []row{
			{comp: tD, coef: tn, perByte: true, ei: -1, relaxed: true},
			{comp: tS, coef: tss, max: 1},
			{comp: tS, coef: tps, perByte: true, ei: -1},
			{comp: tR, coef: tsr, max: 2},
			{comp: tR, coef: tpr, perByte: true, ej: -1},
		},
	},
	mdg.TransferG2G: oneD,
}

// processingRows declare Equation 1 as α·τ + (1−α)·τ·p^-1, over p = p_i.
var processingRows = [...]row{{coef: serial}, {coef: parallel, ei: -1}}

func (tp TransferParams) coefs() [5]float64 {
	return [...]float64{tss: tp.Tss, tps: tp.Tps, tsr: tp.Tsr, tpr: tp.Tpr, tn: tp.Tn}
}

func (lp LoopParams) coefs() [2]float64 {
	return [...]float64{serial: lp.Alpha * lp.Tau, parallel: (1 - lp.Alpha) * lp.Tau}
}

// costOf returns kind's declaration and panics on a kind it lacks.
func costOf(kind mdg.TransferKind) *kindCost {
	if int(kind) >= len(transferKinds) || transferKinds[kind].rows == nil {
		panic(fmt.Sprintf("costmodel: unknown transfer kind %v", kind))
	}
	return &transferKinds[kind]
}

// at evaluates base·p_i^ei·p_j^ej as the equations write it: the base
// times the positive powers, over the product of the negative ones.
func at(base, pi, pj, ei, ej float64) float64 {
	num, den := base, 1.0
	for _, f := range [...]struct{ p, e float64 }{{pi, ei}, {pj, ej}} {
		if f.e > 0 {
			num *= math.Pow(f.p, f.e)
		} else if f.e < 0 {
			den *= math.Pow(f.p, -f.e)
		}
	}
	return num / den
}

// eval evaluates the kind's components at (pi, pj): each row is L (or 1)
// times its max, through at, times its parameter; a relaxed row divides by
// max(pi, pj) instead.
func (k *kindCost) eval(coefs []float64, l, pi, pj float64) TransferCost {
	var mx [maxGroups]float64
	for g, ms := range k.maxes {
		for _, m := range ms {
			mx[g] = math.Max(mx[g], at(1, pi, pj, m.ei, m.ej))
		}
	}
	var c [3]float64
	for _, r := range k.rows {
		v := 1.0
		if r.perByte {
			v = l
		}
		if r.max > 0 {
			v *= mx[r.max-1]
		}
		if r.relaxed {
			v /= math.Max(pi, pj)
		} else {
			v = at(v, pi, pj, r.ei, r.ej)
		}
		c[r.comp] += v * coefs[r.coef]
	}
	return TransferCost{Send: c[tS], Net: c[tD], Recv: c[tR]}
}

// monomial emits c·p_i^ei·p_j^ej over the log-variables vi and vj.
func (r row) monomial(eg *expr.Graph, c float64, vi, vj int) expr.ID {
	return eg.Monomial(c, []int{vi, vj}, []float64{r.ei, r.ej})
}

// exprs emits the kind's components row by row: a max group becomes a
// SmoothMax of its members at its first use, which a row with no powers
// scales and any other row multiplies.
func (k *kindCost) exprs(eg *expr.Graph, coefs []float64, l float64, vi, vj int) (out [3]expr.ID) {
	var mx [maxGroups]expr.ID
	var built [maxGroups]bool
	terms := make([]expr.ID, 0, 4)
	for n, r := range k.rows {
		c, t := coefs[r.coef], expr.ID(0)
		if r.perByte {
			c = l * c
		}
		if g := r.max - 1; g < 0 {
			t = r.monomial(eg, c, vi, vj)
		} else {
			if !built[g] {
				ms := make([]expr.ID, 0, 4)
				for _, m := range k.maxes[g] {
					ms = append(ms, eg.Monomial(1, []int{vi, vj}, []float64{m.ei, m.ej}))
				}
				mx[g], built[g] = eg.SmoothMax(ms...), true
			}
			if r.ei == 0 && r.ej == 0 {
				t = eg.Scale(c, mx[g])
			} else {
				t = eg.Mul(mx[g], r.monomial(eg, c, vi, vj))
			}
		}
		terms = append(terms, t)
		if n+1 == len(k.rows) || k.rows[n+1].comp != r.comp {
			out[r.comp] = eg.Sum(terms...)
			terms = terms[:0]
		}
	}
	return out
}
