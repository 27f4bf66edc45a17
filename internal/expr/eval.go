package expr

import (
	"fmt"
	"math"
)

// Evaluator interprets a Graph node by node: a forward sweep computes
// every node's value, and a reverse sweep accumulates adjoints into the
// gradient. No production path evaluates a graph — the allocator solves
// its epigraph form — so the Evaluator is the reference the tests
// evaluate Φ through; it is kept simple, not fast. Every monomial calls
// math.Exp on its own, every SmoothMax child is exponentiated once in the
// forward sweep and twice more in the backward sweep, and nothing is
// remembered between calls but the scratch space. Create one Evaluator
// per goroutine with NewEvaluator and reuse it across calls to avoid
// allocation.
type Evaluator struct {
	g   *Graph
	val []float64
	adj []float64
}

// NewEvaluator creates an Evaluator bound to g. The evaluator remains
// valid if more nodes are appended to g later (its scratch space regrows).
func NewEvaluator(g *Graph) *Evaluator { return &Evaluator{g: g} }

func (e *Evaluator) grow() {
	n := len(e.g.nodes)
	if cap(e.val) < n {
		e.val = make([]float64, n)
		e.adj = make([]float64, n)
	}
	e.val = e.val[:n]
	e.adj = e.adj[:n]
}

func (e *Evaluator) forward(x []float64, temp float64) {
	e.grow()
	if len(x) < e.g.numVars {
		panic(fmt.Sprintf("expr: got %d variables, graph references %d", len(x), e.g.numVars))
	}
	for i := range e.g.nodes {
		n := &e.g.nodes[i]
		kids := e.g.children(n)
		switch n.kind {
		case kConst:
			e.val[i] = n.coeff
		case kMonomial:
			dot := 0.0
			vs, as := e.g.monomial(n)
			for k, v := range vs {
				dot += as[k] * x[v]
			}
			e.val[i] = n.coeff * math.Exp(dot)
		case kSum:
			s := 0.0
			for _, c := range kids {
				s += e.val[c]
			}
			e.val[i] = s
		case kScale:
			e.val[i] = n.coeff * e.val[kids[0]]
		case kMul:
			e.val[i] = e.val[kids[0]] * e.val[kids[1]]
		case kSmoothMax:
			e.val[i] = e.smoothMaxValue(kids, temp)
		}
	}
}

func (e *Evaluator) smoothMaxValue(kids []ID, temp float64) float64 {
	m := math.Inf(-1)
	for _, c := range kids {
		if e.val[c] > m {
			m = e.val[c]
		}
	}
	if temp <= 0 {
		return m
	}
	s := 0.0
	for _, c := range kids {
		s += math.Exp((e.val[c] - m) / temp)
	}
	return m + temp*math.Log(s)
}

// Eval computes the value of root at log-space point x with SmoothMax
// temperature temp (temp <= 0 gives the exact max).
func (e *Evaluator) Eval(root ID, x []float64, temp float64) float64 {
	e.g.checkChildren(root)
	e.forward(x, temp)
	return e.val[root]
}

// EvalGrad computes the value of root and writes ∂root/∂x into grad,
// which must have length >= Graph.NumVars(). Reverse-mode: one forward
// sweep and one backward sweep. At temp <= 0 the max nodes propagate a
// subgradient through the (first) argmax child.
func (e *Evaluator) EvalGrad(root ID, x []float64, temp float64, grad []float64) float64 {
	e.g.checkChildren(root)
	if len(grad) < e.g.numVars {
		panic(fmt.Sprintf("expr: gradient buffer %d too small for %d variables", len(grad), e.g.numVars))
	}
	e.forward(x, temp)
	clear(e.adj)
	clear(grad)
	e.adj[root] = 1
	for i := len(e.g.nodes) - 1; i >= 0; i-- {
		a := e.adj[i]
		if a == 0 {
			continue
		}
		n := &e.g.nodes[i]
		kids := e.g.children(n)
		switch n.kind {
		case kConst:
			// no dependence
		case kMonomial:
			v := e.val[i]
			vs, as := e.g.monomial(n)
			for k, vi := range vs {
				grad[vi] += a * v * as[k]
			}
		case kSum:
			for _, c := range kids {
				e.adj[c] += a
			}
		case kScale:
			e.adj[kids[0]] += a * n.coeff
		case kMul:
			l, r := kids[0], kids[1]
			e.adj[l] += a * e.val[r]
			e.adj[r] += a * e.val[l]
		case kSmoothMax:
			e.backpropSmoothMax(kids, a, temp)
		}
	}
	return e.val[root]
}

func (e *Evaluator) backpropSmoothMax(kids []ID, a, temp float64) {
	if temp <= 0 {
		// Subgradient: all weight on the first argmax child.
		best, bi := math.Inf(-1), ID(-1)
		for _, c := range kids {
			if e.val[c] > best {
				best, bi = e.val[c], c
			}
		}
		e.adj[bi] += a
		return
	}
	m := math.Inf(-1)
	for _, c := range kids {
		if e.val[c] > m {
			m = e.val[c]
		}
	}
	s := 0.0
	for _, c := range kids {
		s += math.Exp((e.val[c] - m) / temp)
	}
	for _, c := range kids {
		w := math.Exp((e.val[c]-m)/temp) / s
		e.adj[c] += a * w
	}
}
