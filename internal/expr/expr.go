// Package expr implements a small expression DAG over log-space variables
// with forward evaluation and exact reverse-mode gradients.
//
// The allocation formulation of the paper (Section 2) minimizes
// Φ = max(A_p, C_p) where every term is a posynomial in the processor
// counts p_i. Under the substitution x_i = ln p_i a posynomial
// Σ c_k·Π p_i^{a_ki} becomes Σ c_k·exp(a_k·x), which is convex, and the
// max/plus recursion defining the critical path C_p preserves convexity.
// This package represents exactly that class of expressions:
//
//   - Monomial(c, vars, exps): c·exp(Σ_k exps[k]·x_{vars[k]}), the
//     log-space image of c·Π p_{vars[k]}^{exps[k]}; a variable listed
//     twice has its exponents summed
//   - Sum and Scale (with nonnegative factors)
//   - Mul of two expressions (used for processor-time products T_i·p_i)
//   - SmoothMax: the max of its children — exact at temperature 0, a
//     temperature-µ log-sum-exp softening of it at µ > 0 (the annealed
//     reference the tests hold the exact solve to), and one epigraph
//     variable in the exact solver's compile (epigraph.go)
//
// Nodes are created through a Graph builder and refer to children by ID,
// so shared subexpressions (a node weight appearing in both A_p and C_p)
// are evaluated once per sweep. Children always have smaller IDs than
// their parents, which makes a single reverse sweep a valid reverse-mode
// differentiation order. The Graph keeps every node's children, and every
// monomial's variables and exponents, in arenas of its own, so building
// one allocates only as those grow.
//
// The allocator's exact solve does not evaluate the graph: Graph.Epigraph
// compiles it into a geometric program in epigraph form (epigraph.go),
// which package convex solves by an interior-point method. The
// node-by-node Evaluator (eval.go) is the reference the tests evaluate Φ
// through.
package expr

import (
	"fmt"
	"math"
	"slices"
)

// ID names a node inside a Graph.
type ID int32

type kind uint8

const (
	kConst kind = iota
	kMonomial
	kSum
	kScale
	kMul
	kSmoothMax
)

// node is one vertex of the expression DAG. Its operands live in arenas
// the Graph owns, [lo, hi) of one of them: a Monomial's variables and
// exponents in mvar and mexp, every other kind's children in kids.
type node struct {
	kind   kind
	coeff  float64 // kConst: value; kMonomial: c; kScale: factor
	lo, hi int32
}

// Graph is an append-only expression DAG. The zero value is ready to use.
// A Graph is not safe for concurrent mutation; evaluation through an
// Evaluator is safe as long as each goroutine uses its own Evaluator.
type Graph struct {
	nodes []node
	kids  []ID
	// mvar and mexp hold every monomial's variable indices, ascending
	// within a monomial, and their exponents a_j.
	mvar    []int32
	mexp    []float64
	numVars int
}

// NumNodes reports how many nodes have been created.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumVars reports the number of variables referenced (max index + 1).
func (g *Graph) NumVars() int { return g.numVars }

// children returns n's children (none for a constant or a monomial).
func (g *Graph) children(n *node) []ID {
	if n.kind == kConst || n.kind == kMonomial {
		return nil
	}
	return g.kids[n.lo:n.hi]
}

// monomial returns monomial n's variables and exponents.
func (g *Graph) monomial(n *node) ([]int32, []float64) {
	return g.mvar[n.lo:n.hi], g.mexp[n.lo:n.hi]
}

func (g *Graph) add(n node) ID {
	g.nodes = append(g.nodes, n)
	return ID(len(g.nodes) - 1)
}

// addKids appends a node of kind k over the children ids.
func (g *Graph) addKids(k kind, coeff float64, ids ...ID) ID {
	lo := int32(len(g.kids))
	g.kids = append(g.kids, ids...)
	return g.add(node{kind: k, coeff: coeff, lo: lo, hi: int32(len(g.kids))})
}

// Const creates a constant node. Constants must be finite.
func (g *Graph) Const(c float64) ID {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		panic(fmt.Sprintf("expr: non-finite constant %v", c))
	}
	return g.add(node{kind: kConst, coeff: c})
}

// Monomial creates c·exp(Σ_k exps[k]·x_{vars[k]}), the log-space form of
// c·Π p_{vars[k]}^{exps[k]}. A variable listed twice has its exponents
// summed, in the order given, as Π p_v^{a}·p_v^{b} = p_v^{a+b}. The
// coefficient must be positive and finite for the expression to remain
// convex (posynomial); zero is allowed and collapses to the constant 0, as
// does a monomial whose exponents are all zero to the constant c.
func (g *Graph) Monomial(c float64, vars []int, exps []float64) ID {
	if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
		panic(fmt.Sprintf("expr: monomial coefficient %v must be finite and >= 0", c))
	}
	if len(vars) != len(exps) {
		panic(fmt.Sprintf("expr: monomial has %d variables and %d exponents", len(vars), len(exps)))
	}
	for _, v := range vars {
		if v < 0 {
			panic(fmt.Sprintf("expr: negative variable index %d", v))
		}
	}
	// Insert each (variable, exponent) into the arena's tail in variable
	// order, summing a repeat into its first occurrence.
	lo := len(g.mvar)
	for k, v := range vars {
		vi := int32(v)
		j := len(g.mvar)
		for j > lo && g.mvar[j-1] > vi {
			j--
		}
		if j > lo && g.mvar[j-1] == vi {
			g.mexp[j-1] += exps[k]
			continue
		}
		g.mvar = slices.Insert(g.mvar, j, vi)
		g.mexp = slices.Insert(g.mexp, j, exps[k])
	}
	hi := lo
	for k := lo; k < len(g.mvar); k++ {
		if g.mexp[k] != 0 {
			g.mvar[hi], g.mexp[hi] = g.mvar[k], g.mexp[k]
			hi++
		}
	}
	g.mvar, g.mexp = g.mvar[:hi], g.mexp[:hi]
	if c == 0 || hi == lo {
		// 0·exp(…) is the constant 0 — kept a monomial it would be a
		// latent 0·Inf = NaN wherever the exponential overflows.
		g.mvar, g.mexp = g.mvar[:lo], g.mexp[:lo]
		return g.add(node{kind: kConst, coeff: c})
	}
	if v := int(g.mvar[hi-1]) + 1; v > g.numVars {
		g.numVars = v
	}
	return g.add(node{kind: kMonomial, coeff: c, lo: int32(lo), hi: int32(hi)})
}

// Var creates the expression p_v, i.e. exp(x_v).
func (g *Graph) Var(v int) ID {
	return g.Monomial(1, []int{v}, []float64{1})
}

func (g *Graph) checkChildren(ids ...ID) {
	for _, id := range ids {
		if int(id) < 0 || int(id) >= len(g.nodes) {
			panic(fmt.Sprintf("expr: child id %d out of range [0,%d)", id, len(g.nodes)))
		}
	}
}

// Sum creates Σ children. At least one child is required.
func (g *Graph) Sum(ids ...ID) ID {
	if len(ids) == 0 {
		panic("expr: Sum requires at least one child")
	}
	g.checkChildren(ids...)
	if len(ids) == 1 {
		return ids[0]
	}
	return g.addKids(kSum, 0, ids...)
}

// Scale creates c·child with c >= 0 (preserving convexity).
func (g *Graph) Scale(c float64, id ID) ID {
	if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
		panic(fmt.Sprintf("expr: scale factor %v must be finite and >= 0", c))
	}
	g.checkChildren(id)
	if c == 1 {
		return id
	}
	return g.addKids(kScale, c, id)
}

// Mul creates a·b. Multiplication of two posynomials is again a
// posynomial, so convexity in log-space is preserved.
func (g *Graph) Mul(a, b ID) ID {
	g.checkChildren(a, b)
	return g.addKids(kMul, 0, a, b)
}

// SmoothMax creates the temperature-smoothed maximum of its children:
// µ·log Σ exp(v_k/µ) at temperature µ > 0, and the exact max at µ <= 0.
// The temperature is supplied at evaluation time so a smoothed solve can
// anneal without rebuilding the graph.
func (g *Graph) SmoothMax(ids ...ID) ID {
	if len(ids) == 0 {
		panic("expr: SmoothMax requires at least one child")
	}
	g.checkChildren(ids...)
	if len(ids) == 1 {
		return ids[0]
	}
	return g.addKids(kSmoothMax, 0, ids...)
}
