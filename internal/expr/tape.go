package expr

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
)

// op is one interior node (Sum, Scale, Mul or SmoothMax) of a compiled
// tape: its kind and coefficient beside the offsets of its operands, so
// a sweep reads one 32-byte record per node instead of chasing slice
// headers.
type op struct {
	kind kind
	id   int32 // the node's ID in the graph
	n    int32 // child count
	off  int32 // first child in tape.arena
	// aux (kSmoothMax only) is the node's first cell in the evaluator's
	// weight scratch: n child weights followed by their sum.
	aux   int32
	coeff float64 // kScale: factor
}

// monomial is one Monomial node of a compiled tape: coeff × the shared
// exponential in table slot `slot`, whose exponent vector occupies
// [lo, hi) of tape.slotVar/slotExp.
type monomial struct {
	id, slot int32
	lo, hi   int32
	coeff    float64
}

// constant is one Const node of a compiled tape.
type constant struct {
	id    int32
	value float64
}

// tape is the immutable compiled form of a Graph's first `nodes` nodes,
// shared read-only by every evaluator of that graph. Node IDs, operand
// order and every arithmetic operation are those of the graph — the tape
// only shares values that were already equal, and sorts the nodes by what
// a sweep has to do with them:
//
//   - constants never change, so an evaluator writes them once;
//   - monomials are leaves, so a sweep handles them in a loop of their
//     own with no dispatch; those with the same exponent vector share
//     one exp(a·x), held in a per-sweep table indexed by slot (each
//     monomial is then coeff × table[slot]);
//   - a SmoothMax child's weight exp((v−m)/T) is computed once in the
//     forward sweep and kept for the backward sweep.
//
// Nodes are deliberately not merged: adjoints accumulate per node, so the
// order of every floating-point sum is the graph's own.
type tape struct {
	nodes     int
	numVars   int
	constants []constant
	monomials []monomial // ascending ID
	inner     []op       // ascending ID
	arena     []int32    // child IDs of every interior node, back to back
	// Exponent-vector table: slot s is Σ slotExp[k]·x[slotVar[k]] over
	// k in [slotOff[s], slotOff[s+1]).
	slotOff []int32
	slotVar []int32
	slotExp []float64
	weights int // cells of SmoothMax weight scratch an evaluator needs
}

// compiled returns the tape for the graph's current nodes, compiling it
// on first use and again whenever nodes were appended since. Concurrent
// first uses may each compile; the tapes are identical and one wins.
func (g *Graph) compiled() *tape {
	if t := g.tape.Load(); t != nil && t.nodes == len(g.nodes) {
		return t
	}
	t := compile(g)
	g.tape.Store(t)
	return t
}

func compile(g *Graph) *tape {
	var count [kSmoothMax + 1]int
	children, terms := 0, 0
	for i := range g.nodes {
		nd := &g.nodes[i]
		count[nd.kind]++
		children += len(nd.children)
		terms += len(nd.varIdx)
	}
	nmono := count[kMonomial]
	t := &tape{
		nodes:     len(g.nodes),
		numVars:   g.numVars,
		constants: make([]constant, 0, count[kConst]),
		monomials: make([]monomial, 0, nmono),
		inner:     make([]op, 0, len(g.nodes)-count[kConst]-nmono),
		arena:     make([]int32, 0, children),
		slotOff:   make([]int32, 1, nmono+1),
		slotVar:   make([]int32, 0, terms),
		slotExp:   make([]float64, 0, terms),
	}
	for i := range g.nodes {
		nd := &g.nodes[i]
		switch nd.kind {
		case kConst:
			t.constants = append(t.constants, constant{id: int32(i), value: nd.coeff})
		case kMonomial:
			t.monomials = append(t.monomials, monomial{id: int32(i), coeff: nd.coeff})
		default:
			o := op{kind: nd.kind, id: int32(i), n: int32(len(nd.children)), off: int32(len(t.arena)), coeff: nd.coeff}
			if nd.kind == kSmoothMax {
				o.aux = int32(t.weights)
				t.weights += len(nd.children) + 1
			}
			for _, c := range nd.children {
				t.arena = append(t.arena, int32(c))
			}
			t.inner = append(t.inner, o)
		}
	}
	// Intern exponent vectors: order the monomials by vector, so that
	// equal vectors are adjacent, and give each run of them one slot.
	order := make([]int32, nmono) // indices into t.monomials
	for k := range order {
		order[k] = int32(k)
	}
	vector := func(k int32) *node { return &g.nodes[t.monomials[k].id] }
	slices.SortFunc(order, func(a, b int32) int { return compareVectors(vector(a), vector(b)) })
	for k, mi := range order {
		nd := vector(mi)
		if k == 0 || compareVectors(vector(order[k-1]), nd) != 0 {
			t.slotVar = append(t.slotVar, nd.varIdx...)
			t.slotExp = append(t.slotExp, nd.varExp...)
			t.slotOff = append(t.slotOff, int32(len(t.slotVar)))
		}
		m := &t.monomials[mi]
		m.slot = int32(len(t.slotOff) - 2)
		m.lo, m.hi = t.slotOff[m.slot], t.slotOff[m.slot+1]
	}
	return t
}

// compareVectors orders monomials by exponent vector — variables, then
// exponent bits, then length — and returns 0 only for vectors that are
// identical word for word, whose dot products a·x are therefore the same
// floating-point computation.
func compareVectors(a, b *node) int {
	for k := 0; k < len(a.varIdx) && k < len(b.varIdx); k++ {
		if c := cmp.Compare(a.varIdx[k], b.varIdx[k]); c != 0 {
			return c
		}
		if c := cmp.Compare(math.Float64bits(a.varExp[k]), math.Float64bits(b.varExp[k])); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a.varIdx), len(b.varIdx))
}

// Shape counts what a sweep over the graph has to do; ExpsPerEvalGrad
// and the benchmarks derive the exponential traffic from it.
type Shape struct {
	Nodes             int
	Monomials         int
	ExpVectors        int // distinct monomial exponent vectors
	SmoothMaxNodes    int
	SmoothMaxChildren int
}

// Shape reports the graph's evaluation shape.
func (g *Graph) Shape() Shape {
	t := g.compiled()
	s := Shape{Nodes: t.nodes, Monomials: len(t.monomials), ExpVectors: len(t.slotOff) - 1}
	for i := range t.inner {
		if o := &t.inner[i]; o.kind == kSmoothMax {
			s.SmoothMaxNodes++
			s.SmoothMaxChildren += int(o.n)
		}
	}
	return s
}

// ExpsPerEvalGrad is the number of math.Exp calls one EvalGrad at a
// positive temperature makes: one per distinct exponent vector plus one
// per SmoothMax child that is not its node's maximum (ties, and children
// so far below the maximum that their weight underflows, make it fewer).
// The node-by-node interpreter this tape replaced made
// Monomials + 3·SmoothMaxChildren.
func (s Shape) ExpsPerEvalGrad() int {
	return s.ExpVectors + s.SmoothMaxChildren - s.SmoothMaxNodes
}

// Evaluator holds the scratch space of one Graph's sweeps: node values
// and adjoints, the per-sweep exponent-vector table, the SmoothMax child
// weights the backward sweep reuses, and the (x, temp) of the last
// forward sweep, which lets an EvalGrad at the point an Eval just visited
// skip straight to the backward sweep. The compiled tape it runs is
// shared; the scratch is not, so create one Evaluator per goroutine with
// NewEvaluator and reuse it across calls to avoid allocation.
type Evaluator struct {
	g *Graph
	t *tape // the tape the scratch below is sized for
	// One backing buffer, carved into the five vectors.
	buf     []float64
	val     []float64 // per node
	adj     []float64 // per node
	exps    []float64 // per exponent-vector slot: exp(a·x)
	weights []float64 // per SmoothMax: child weights, then their sum
	// Forward memo: val, exps and weights are those of (lastX, lastTemp)
	// when swept is set.
	lastX    []float64
	lastTemp float64
	swept    bool
}

// NewEvaluator creates an Evaluator bound to g. The evaluator remains
// valid if more nodes are appended to g later (the graph is recompiled
// and scratch space regrows).
func NewEvaluator(g *Graph) *Evaluator {
	return &Evaluator{g: g}
}

// EvaluatorPool recycles Evaluators for one Graph through a sync.Pool,
// so concurrent solvers (ADMM subgraph solves, parallel experiment
// sweeps) reuse scratch space instead of allocating it per goroutine per
// solve. A recycled evaluator's only carried state is the forward memo,
// which is keyed on the exact bits of (x, temp) and so can only ever
// stand in for the sweep it would repeat: a recycled evaluator is
// indistinguishable from a fresh one — expr's pool guard test proves it.
type EvaluatorPool struct {
	g    *Graph
	pool sync.Pool
}

// NewEvaluatorPool creates a pool of evaluators bound to g and compiles
// g's tape, so that evaluators drawn concurrently find it ready.
func NewEvaluatorPool(g *Graph) *EvaluatorPool {
	g.compiled()
	p := &EvaluatorPool{g: g}
	p.pool.New = func() any { return NewEvaluator(g) }
	return p
}

// Get returns an evaluator for the pool's graph, recycled when one is
// available. Callers must return it with Put when done.
func (p *EvaluatorPool) Get() *Evaluator { return p.pool.Get().(*Evaluator) }

// Put returns an evaluator to the pool. The evaluator must have been
// created by this pool (or at least bound to the same Graph).
func (p *EvaluatorPool) Put(e *Evaluator) {
	if e == nil || e.g != p.g {
		panic("expr: EvaluatorPool.Put of an evaluator bound to a different graph")
	}
	p.pool.Put(e)
}

// Shape reports the evaluation shape of the pool's graph.
func (p *EvaluatorPool) Shape() Shape { return p.g.Shape() }

// bind points the evaluator at the graph's current tape; when the tape
// changed it resizes the scratch, writes the constants' values (no sweep
// touches them again) and drops the forward memo.
func (e *Evaluator) bind() *tape {
	t := e.g.compiled()
	if t == e.t {
		return t
	}
	n, slots := t.nodes, len(t.slotOff)-1
	total := 2*n + slots + t.weights + t.numVars
	if cap(e.buf) < total {
		e.buf = make([]float64, total)
	}
	b := e.buf[:total]
	e.val, b = b[:n], b[n:]
	e.adj, b = b[:n], b[n:]
	e.exps, b = b[:slots], b[slots:]
	e.weights, e.lastX = b[:t.weights], b[t.weights:]
	e.t, e.swept = t, false
	for _, c := range t.constants {
		e.val[c.id] = c.value
	}
	return t
}

// forward computes the value of every node at (x, temp) — the shared
// exponentials, then the monomials, then the interior nodes in append
// order, so every operand is ready when it is read — unless the previous
// sweep was at exactly this point, in which case its values still stand.
func (e *Evaluator) forward(t *tape, x []float64, temp float64) {
	if len(x) < t.numVars {
		panic(fmt.Sprintf("expr: got %d variables, graph references %d", len(x), t.numVars))
	}
	x = x[:t.numVars]
	if e.swept && math.Float64bits(temp) == math.Float64bits(e.lastTemp) && sameBits(x, e.lastX) {
		return
	}
	e.swept = false

	exps := e.exps
	for s := range exps {
		dot := 0.0
		for k, hi := t.slotOff[s], t.slotOff[s+1]; k < hi; k++ {
			dot += t.slotExp[k] * x[t.slotVar[k]]
		}
		exps[s] = math.Exp(dot)
	}

	val, arena := e.val, t.arena
	for k := range t.monomials {
		m := &t.monomials[k]
		val[m.id] = m.coeff * exps[m.slot]
	}
	for k := range t.inner {
		o := &t.inner[k]
		i := o.id
		switch o.kind {
		case kSum:
			s := 0.0
			for _, c := range arena[o.off : o.off+o.n] {
				s += val[c]
			}
			val[i] = s
		case kScale:
			val[i] = o.coeff * val[arena[o.off]]
		case kMul:
			val[i] = val[arena[o.off]] * val[arena[o.off+1]]
		case kSmoothMax:
			ch := arena[o.off : o.off+o.n]
			m := math.Inf(-1)
			for _, c := range ch {
				if val[c] > m {
					m = val[c]
				}
			}
			if temp <= 0 {
				val[i] = m
				continue
			}
			// Child weights exp((v−m)/T), kept for the backward sweep.
			// Two quotients need no math.Exp: 0 (the maximal child;
			// exp(±0) is exactly 1) and anything below expUnderflow
			// (exactly 0) — at annealed temperatures, most of them.
			w := e.weights[o.aux : o.aux+o.n+1]
			s := 0.0
			for k, c := range ch {
				wk := 1.0
				if q := (val[c] - m) / temp; q < expUnderflow {
					wk = 0
				} else if q != 0 {
					wk = math.Exp(q)
				}
				w[k] = wk
				s += wk
			}
			w[o.n] = s
			// A lone maximum leaves s = 1, and log 1 is exactly +0.
			lse := 0.0
			if s != 1 {
				lse = math.Log(s)
			}
			val[i] = m + temp*lse
		}
	}

	copy(e.lastX, x)
	e.lastTemp, e.swept = temp, true
}

// expUnderflow is a bound below which math.Exp returns exactly 0:
// e^-746 < 2^-1075, half the smallest denormal, so the correctly rounded
// result is 0 and every implementation (the portable one cuts off at
// -745.13, the amd64 one at -745.48, after running its whole polynomial)
// returns it.
const expUnderflow = -746

func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (t *tape) checkRoot(root ID) {
	if int(root) < 0 || int(root) >= t.nodes {
		panic(fmt.Sprintf("expr: child id %d out of range [0,%d)", root, t.nodes))
	}
}

// Eval computes the value of root at log-space point x with SmoothMax
// temperature temp (temp <= 0 gives the exact max).
func (e *Evaluator) Eval(root ID, x []float64, temp float64) float64 {
	t := e.bind()
	t.checkRoot(root)
	e.forward(t, x, temp)
	return e.val[root]
}

// EvalGrad computes the value of root and writes ∂root/∂x into grad,
// which must have length >= Graph.NumVars(). Reverse-mode: one forward
// sweep (skipped when the previous call swept this very point) and one
// backward sweep over the tape. At temp <= 0 the max nodes propagate a
// subgradient through the (first) argmax child.
func (e *Evaluator) EvalGrad(root ID, x []float64, temp float64, grad []float64) float64 {
	t := e.bind()
	t.checkRoot(root)
	if len(grad) < t.numVars {
		panic(fmt.Sprintf("expr: gradient buffer %d too small for %d variables", len(grad), t.numVars))
	}
	e.forward(t, x, temp)
	clear(grad)
	val, adj, arena := e.val, e.adj, t.arena
	clear(adj)
	adj[root] = 1
	// Interior nodes only feed adjoints and monomials only feed grad, so
	// sweeping all of the former before the latter (each in descending
	// ID) adds up every adjoint and every grad component in the order
	// one interleaved descending sweep would. Nodes above root keep a
	// zero adjoint and are skipped like any other node root does not
	// depend on.
	for j := len(t.inner) - 1; j >= 0; j-- {
		o := &t.inner[j]
		a := adj[o.id]
		if a == 0 {
			continue
		}
		switch o.kind {
		case kSum:
			for _, c := range arena[o.off : o.off+o.n] {
				adj[c] += a
			}
		case kScale:
			adj[arena[o.off]] += a * o.coeff
		case kMul:
			l, r := arena[o.off], arena[o.off+1]
			adj[l] += a * val[r]
			adj[r] += a * val[l]
		case kSmoothMax:
			ch := arena[o.off : o.off+o.n]
			if temp <= 0 {
				// Subgradient: all weight on the first argmax child.
				best, bi := math.Inf(-1), int32(-1)
				for _, c := range ch {
					if val[c] > best {
						best, bi = val[c], c
					}
				}
				adj[bi] += a
				continue
			}
			w := e.weights[o.aux : o.aux+o.n+1]
			s := w[o.n]
			for k, c := range ch {
				adj[c] += a * (w[k] / s)
			}
		}
	}
	for j := len(t.monomials) - 1; j >= 0; j-- {
		m := &t.monomials[j]
		a := adj[m.id]
		if a == 0 {
			continue
		}
		av := a * val[m.id]
		for k := m.lo; k < m.hi; k++ {
			grad[t.slotVar[k]] += av * t.slotExp[k]
		}
	}
	return val[root]
}
