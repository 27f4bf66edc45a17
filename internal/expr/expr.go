// Package expr implements a small expression DAG over log-space variables
// with memoized forward evaluation and exact reverse-mode gradients.
//
// The allocation formulation of the paper (Section 2) minimizes
// Φ = max(A_p, C_p) where every term is a posynomial in the processor
// counts p_i. Under the substitution x_i = ln p_i a posynomial
// Σ c_k·Π p_i^{a_ki} becomes Σ c_k·exp(a_k·x), which is convex, and the
// max/plus recursion defining the critical path C_p preserves convexity.
// This package represents exactly that class of expressions:
//
//   - Monomial: c·exp(Σ a_j·x_j), the log-space image of c·Π p_j^{a_j}
//   - Sum and Scale (with nonnegative factors)
//   - Mul of two expressions (used for processor-time products T_i·p_i)
//   - SmoothMax: a temperature-µ log-sum-exp softening of max, annealed
//     toward the exact max by the convex solver
//
// Nodes are created through a Graph builder and refer to children by ID,
// so shared subexpressions (a node weight appearing in both A_p and C_p)
// are evaluated once per sweep. Children always have smaller IDs than
// their parents, which makes a single reverse sweep a valid reverse-mode
// differentiation order.
//
// Evaluation does not walk the builder's nodes. The graph is compiled,
// once, into a flat tape (tape.go) that every Evaluator of the graph
// shares: monomials with the same exponent vector share one exp(a·x) per
// sweep, a SmoothMax child's weight is exponentiated once and reused by
// the backward sweep, and an EvalGrad at the point the previous call
// swept runs the backward sweep only. None of it re-associates a sum or
// merges a node, so every value and gradient is, bit for bit, what a
// node-by-node interpretation of the graph computes — the package's
// tests keep that interpreter and compare against it.
package expr

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
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

// node is one vertex of the expression DAG.
type node struct {
	kind     kind
	coeff    float64   // kConst: value; kMonomial: c; kScale: factor
	varIdx   []int32   // kMonomial: variable indices
	varExp   []float64 // kMonomial: exponents a_j (parallel to varIdx)
	children []ID
}

// Graph is an append-only expression DAG. The zero value is ready to use.
// A Graph is not safe for concurrent mutation; evaluation through an
// Evaluator is safe as long as each goroutine uses its own Evaluator.
type Graph struct {
	nodes   []node
	numVars int
	// tape is the compiled form of nodes that evaluators run (tape.go),
	// built on first use and replaced when the graph has grown since.
	tape atomic.Pointer[tape]
}

// NumNodes reports how many nodes have been created.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumVars reports the number of variables referenced (max index + 1).
func (g *Graph) NumVars() int { return g.numVars }

func (g *Graph) add(n node) ID {
	g.nodes = append(g.nodes, n)
	return ID(len(g.nodes) - 1)
}

// Const creates a constant node. Constants must be finite.
func (g *Graph) Const(c float64) ID {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		panic(fmt.Sprintf("expr: non-finite constant %v", c))
	}
	return g.add(node{kind: kConst, coeff: c})
}

// Monomial creates c·exp(Σ exps[v]·x_v), the log-space form of
// c·Π p_v^{exps[v]}. The coefficient must be positive and finite for the
// expression to remain convex (posynomial); zero is allowed and collapses
// to the constant 0, as does a monomial whose exponents are all zero to
// the constant c.
func (g *Graph) Monomial(c float64, exps map[int]float64) ID {
	if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
		panic(fmt.Sprintf("expr: monomial coefficient %v must be finite and >= 0", c))
	}
	idx := make([]int32, 0, len(exps))
	for v, a := range exps {
		if v < 0 {
			panic(fmt.Sprintf("expr: negative variable index %d", v))
		}
		if a != 0 {
			idx = append(idx, int32(v))
		}
	}
	if c == 0 || len(idx) == 0 {
		// 0·exp(…) is the constant 0 — kept a monomial it would be a
		// latent 0·Inf = NaN wherever the exponential overflows.
		return g.add(node{kind: kConst, coeff: c})
	}
	slices.Sort(idx)
	n := node{kind: kMonomial, coeff: c, varIdx: idx, varExp: make([]float64, len(idx))}
	for k, v := range idx {
		n.varExp[k] = exps[int(v)]
	}
	if v := int(idx[len(idx)-1]) + 1; v > g.numVars {
		g.numVars = v
	}
	return g.add(n)
}

// Var creates the expression p_v, i.e. exp(x_v).
func (g *Graph) Var(v int) ID {
	return g.Monomial(1, map[int]float64{v: 1})
}

func (g *Graph) checkChildren(ids []ID) {
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
	g.checkChildren(ids)
	if len(ids) == 1 {
		return ids[0]
	}
	return g.add(node{kind: kSum, children: append([]ID(nil), ids...)})
}

// Scale creates c·child with c >= 0 (preserving convexity).
func (g *Graph) Scale(c float64, id ID) ID {
	if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
		panic(fmt.Sprintf("expr: scale factor %v must be finite and >= 0", c))
	}
	g.checkChildren([]ID{id})
	if c == 1 {
		return id
	}
	return g.add(node{kind: kScale, coeff: c, children: []ID{id}})
}

// Mul creates a·b. Multiplication of two posynomials is again a
// posynomial, so convexity in log-space is preserved.
func (g *Graph) Mul(a, b ID) ID {
	g.checkChildren([]ID{a, b})
	return g.add(node{kind: kMul, children: []ID{a, b}})
}

// SmoothMax creates the temperature-smoothed maximum of its children:
// µ·log Σ exp(v_k/µ) at temperature µ > 0, and the exact max at µ <= 0.
// The temperature is supplied at evaluation time so the solver can anneal
// without rebuilding the graph.
func (g *Graph) SmoothMax(ids ...ID) ID {
	if len(ids) == 0 {
		panic("expr: SmoothMax requires at least one child")
	}
	g.checkChildren(ids)
	if len(ids) == 1 {
		return ids[0]
	}
	return g.add(node{kind: kSmoothMax, children: append([]ID(nil), ids...)})
}

// TempSlack returns a certified per-unit-temperature bound on the
// smoothing gap of root: for every x and every temperature T > 0,
//
//	Eval(root, x, 0) <= Eval(root, x, T) <= Eval(root, x, 0) + T·TempSlack(root)
//
// The bound is a structural DP over the DAG: constants and monomials are
// exact; a Sum accumulates its children's slacks; a Scale multiplies by
// its factor; a SmoothMax over k children adds ln k on top of the worst
// child (log-sum-exp exceeds max by at most T·ln k). A Mul whose operand
// carries slack has a value-dependent gap, so the DP returns +Inf for it
// — sound, just uninformative. The allocator's racing scheme uses this
// bound to turn a trajectory's smoothed stage value into a certified
// lower bound on the global minimum of the exact objective.
func (g *Graph) TempSlack(root ID) float64 {
	g.checkChildren([]ID{root})
	slack := make([]float64, int(root)+1)
	for i := 0; i <= int(root); i++ {
		n := &g.nodes[i]
		switch n.kind {
		case kConst, kMonomial:
			slack[i] = 0
		case kSum:
			s := 0.0
			for _, c := range n.children {
				s += slack[c]
			}
			slack[i] = s
		case kScale:
			if n.coeff == 0 {
				slack[i] = 0 // 0·Inf would poison the DP with NaN
			} else {
				slack[i] = n.coeff * slack[n.children[0]]
			}
		case kMul:
			if slack[n.children[0]] > 0 || slack[n.children[1]] > 0 {
				slack[i] = math.Inf(1)
			}
		case kSmoothMax:
			worst := 0.0
			for _, c := range n.children {
				if slack[c] > worst {
					worst = slack[c]
				}
			}
			slack[i] = worst + math.Log(float64(len(n.children)))
		}
	}
	return slack[root]
}

// TempGapBound returns a certified bound on the smoothing gap of root at
// one fixed temperature temp > 0, uniformly over the box [lower, upper]:
//
//	Eval(root, x, temp) <= Eval(root, x, 0) + TempGapBound(root, temp, lower, upper)
//
// for every x with lower <= x <= upper. It strengthens TempSlack where
// that DP gives up: a Mul's gap is value-dependent, but over a bounded
// box the factor values are bounded too —
//
//	a_T·b_T − a_0·b_0 = (a_T−a_0)·b_T + a_0·(b_T−b_0)
//	               <= gap_a·(ub_b+gap_b) + ub_a·gap_b
//
// for nonnegative factors, where ub is the factor's exact-value upper
// bound over the box (a monomial's box maximum is closed-form; sums,
// scales and maxes propagate). The DP therefore tracks (ub, gap) per
// node. A Mul with a possibly-negative operand (a negative constant
// somewhere below it) falls back to +Inf — sound, and impossible for the
// posynomial objectives the allocator builds. The allocator's racing
// certificate uses this bound: it turns a trajectory's smoothed stage
// value into a certified lower bound on the global minimum of the exact
// objective (alloc/race.go).
func (g *Graph) TempGapBound(root ID, temp float64, lower, upper []float64) float64 {
	g.checkChildren([]ID{root})
	if temp <= 0 {
		return 0
	}
	n := int(root) + 1
	ub := make([]float64, n)  // upper bound of the exact (temp-0) value
	neg := make([]bool, n)    // value could be negative somewhere in the box
	gap := make([]float64, n) // bound on val_T − val_0 over the box
	for i := 0; i < n; i++ {
		nd := &g.nodes[i]
		switch nd.kind {
		case kConst:
			ub[i] = nd.coeff
			neg[i] = nd.coeff < 0
		case kMonomial:
			// max over the box of c·exp(Σ a_j·x_j): each term maximizes
			// independently at the bound its exponent sign picks.
			dot := 0.0
			for k, v := range nd.varIdx {
				if int(v) >= len(lower) || int(v) >= len(upper) {
					return math.Inf(1)
				}
				dot += math.Max(nd.varExp[k]*lower[v], nd.varExp[k]*upper[v])
			}
			ub[i] = nd.coeff * math.Exp(dot)
		case kSum:
			for _, c := range nd.children {
				ub[i] += ub[c]
				gap[i] += gap[c]
				neg[i] = neg[i] || neg[c]
			}
		case kScale:
			if nd.coeff == 0 {
				ub[i], gap[i] = 0, 0 // 0·Inf would poison the DP with NaN
			} else {
				ub[i] = nd.coeff * ub[nd.children[0]]
				gap[i] = nd.coeff * gap[nd.children[0]]
			}
			neg[i] = neg[nd.children[0]]
		case kMul:
			a, b := nd.children[0], nd.children[1]
			ub[i] = ub[a] * ub[b]
			neg[i] = neg[a] || neg[b]
			switch {
			case gap[a] == 0 && gap[b] == 0:
				gap[i] = 0
			case neg[i]:
				gap[i] = math.Inf(1)
			default:
				gap[i] = gap[a]*(ub[b]+gap[b]) + ub[a]*gap[b]
			}
		case kSmoothMax:
			worstUB, worstGap := math.Inf(-1), 0.0
			for _, c := range nd.children {
				worstUB = math.Max(worstUB, ub[c])
				worstGap = math.Max(worstGap, gap[c])
				neg[i] = neg[i] || neg[c]
			}
			ub[i] = worstUB
			gap[i] = worstGap + temp*math.Log(float64(len(nd.children)))
		}
	}
	return gap[root]
}
