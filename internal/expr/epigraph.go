package expr

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Epigraph is an expression in epigraph form: the geometric program
// "minimise the root over x" rewritten so that an interior-point method can
// solve it exactly, with no smoothing temperature.
//
// Every SmoothMax node the root depends on with two or more children that
// are not identically zero gets a log-domain variable z, and the root gets
// one too (its own SmoothMax variable when it is one). Each such variable's
// node contributes one constraint per nonzero child c:
//
//	log Σ_t exp(b_t + a_t·u) ≤ 0,   i.e.   c(x, z) · e^{−z_node} ≤ 1,
//
// where c is expanded as a posynomial through Sum, Scale and Mul — a max
// below it appears as the monomial e^{z} of its own variable — with like
// terms merged. A max with one nonzero child is that child, and the larger
// operand of a product past maxProduct terms gets a variable of its own,
// bounded through one constraint, the same way. The program is
// then: minimise u[Root] over u = (x, z) subject to every constraint, and
// its optimum is the log of the root's exact (hard-max) minimum: the
// constraints only bound each z from below, every posynomial is increasing
// in e^{z}, so at the optimum each z sits on the largest of its children.
//
// The compile is deterministic to the bit: nodes are visited in ID order,
// children in their own order, terms sorted by a total order on exponent
// vectors with a stable sort, and no map is iterated anywhere.
type Epigraph struct {
	// NumX counts the graph's variables, u[0:NumX]; NumVars adds the
	// epigraph variables, u[NumX:NumVars], numbered in node order, so a
	// constraint mentions only variables below its owner's and the owner.
	NumX, NumVars int
	// Root is the variable the program minimises.
	Root int
	// Constraint i's terms are [ConOff[i], ConOff[i+1]); term t's
	// exponent entries are [TermOff[t], TermOff[t+1]), sorted by variable,
	// and LogCoef[t] is its b_t. Owner[i] is the epigraph variable
	// constraint i bounds: every one of its terms carries it with
	// exponent −1. Constraints of one owner are contiguous, owners
	// ascending.
	ConOff  []int32
	Owner   []int32
	TermOff []int32
	LogCoef []float64
	Var     []int32
	Exp     []float64
}

// ErrZeroRoot reports a root that is identically zero: there is nothing
// to minimise.
var ErrZeroRoot = errors.New("expr: root is identically zero")

// NumConstraints reports the program's constraint count.
func (ep *Epigraph) NumConstraints() int { return len(ep.Owner) }

// term is one posynomial term during the compile: exp(b + Σ a_k·u_k) with
// its entries in [lo, hi) of the compiler's entry arena.
type term struct {
	b      float64
	lo, hi int32
}

// epiCompiler holds the compile's scratch: one arena of terms and one of
// exponent entries, shared by every node's posynomial (a Sum copies its
// children's term headers, never their entries).
type epiCompiler struct {
	g     *Graph
	terms []term
	ev    []int32
	ea    []float64
	// span[id] is node id's posynomial, [off, off+n) of terms.
	span [][2]int32
	zvar []int32 // node id's epigraph variable, or −1
	ep   *Epigraph
	sort []term // emit's scratch
}

// maxProduct caps the terms a Mul may expand to: past it the product's
// larger operand is boxed — bounded by an epigraph variable of its own,
// through one constraint, and seen by the product as that variable's
// monomial — so nested products of sums grow linearly, not exponentially.
// The allocator's products (a weight times p, a max times a monomial) stay
// far below it.
const maxProduct = 64

// Epigraph compiles the expression rooted at root into epigraph form. It
// fails on a negative constant, which no posynomial can represent, and with
// ErrZeroRoot when the root is identically zero.
func (g *Graph) Epigraph(root ID) (*Epigraph, error) {
	if int(root) < 0 || int(root) >= len(g.nodes) {
		return nil, fmt.Errorf("expr: root %d out of range [0,%d)", root, len(g.nodes))
	}
	n := int(root) + 1
	zero := make([]bool, n)
	boxed := make([]bool, n) // a max with two nonzero children, or a boxed operand
	count := make([]int, n)  // the terms a parent sees
	width := make([]int, n)  // the entries of one of them, at most
	// Bounds on the terms and exponent entries the expansion makes: each
	// node's own terms (a Sum's are its children's headers; a Monomial's
	// and a product's entries are new) and a boxed node's monomial.
	terms, entries := 0, 0
	for i := 0; i < n; i++ {
		nd := &g.nodes[i]
		kids := 0 // a Sum's or max's nonzero children
		switch nd.kind {
		case kConst:
			if nd.coeff < 0 {
				return nil, fmt.Errorf("expr: negative constant %v is not a posynomial", nd.coeff)
			}
			zero[i] = nd.coeff == 0
			count[i] = 1
		case kMonomial:
			count[i], width[i] = 1, int(nd.hi-nd.lo)
			entries += width[i]
		case kScale:
			ch := g.kids[nd.lo]
			zero[i] = nd.coeff == 0 || zero[ch]
			count[i], width[i] = count[ch], width[ch]
		case kMul:
			a, b := g.kids[nd.lo], g.kids[nd.lo+1]
			zero[i] = zero[a] || zero[b]
			for count[a]*count[b] > maxProduct {
				big := a
				if count[b] > count[a] {
					big = b
				}
				boxed[big], count[big], width[big] = true, 1, 1
			}
			count[i], width[i] = count[a]*count[b], width[a]+width[b]
			entries += count[i] * width[i]
		default: // kSum, kSmoothMax
			for _, c := range g.children(nd) {
				if !zero[c] {
					kids++
					count[i] += count[c]
					width[i] = max(width[i], width[c])
				}
			}
			zero[i] = kids == 0
		}
		if zero[i] {
			count[i] = 0
		}
		if nd.kind == kSmoothMax && kids >= 2 {
			boxed[i], count[i], width[i] = true, 1, 1
		}
		terms += count[i]
	}
	for _, b := range boxed {
		if b {
			terms++
			entries++
		}
	}
	if zero[root] {
		return nil, ErrZeroRoot
	}
	// A node is live when the root's posynomial reaches it through nonzero
	// nodes only; the descending sweep visits every parent first.
	live := make([]bool, n)
	live[root] = true
	for i := n - 1; i >= 0; i-- {
		if !live[i] || zero[i] {
			continue
		}
		for _, c := range g.children(&g.nodes[i]) {
			live[c] = !zero[c]
		}
	}

	c := &epiCompiler{g: g, span: make([][2]int32, n), zvar: make([]int32, n),
		terms: make([]term, 0, terms), ev: make([]int32, 0, entries), ea: make([]float64, 0, entries)}
	next := int32(g.numVars)
	for i := 0; i < n; i++ {
		c.zvar[i] = -1
		if live[i] && boxed[i] {
			c.zvar[i] = next
			next++
		}
	}
	// Each variable's constraints, in owner order: its children's spans, or
	// a boxed node's own.
	type constraint struct {
		z    int32
		span [2]int32
	}
	var cons []constraint
	for i := 0; i < n; i++ {
		if !live[i] || zero[i] {
			continue
		}
		z := c.zvar[i]
		switch {
		case z < 0:
			c.expand(ID(i), zero)
			continue
		case g.nodes[i].kind == kSmoothMax:
			for _, ch := range g.children(&g.nodes[i]) {
				if !zero[ch] {
					cons = append(cons, constraint{z, c.span[ch]})
				}
			}
		default:
			c.expand(ID(i), zero)
			cons = append(cons, constraint{z, c.span[i]})
		}
		// Its parents see the variable's monomial e^z.
		lo := int32(len(c.ev))
		c.ev, c.ea = append(c.ev, z), append(c.ea, 1)
		c.span[i] = [2]int32{int32(len(c.terms)), 1}
		c.terms = append(c.terms, term{b: 0, lo: lo, hi: lo + 1})
	}
	if c.zvar[root] < 0 {
		// A root that is no max of its own is bounded by one variable
		// above all others, through one constraint.
		cons = append(cons, constraint{next, c.span[root]})
		c.zvar[root] = next
		next++
	}
	nt, ne := 0, 0
	for _, k := range cons {
		nt += int(k.span[1])
		for _, t := range c.terms[k.span[0] : k.span[0]+k.span[1]] {
			ne += int(t.hi-t.lo) + 1
		}
	}
	c.ep = &Epigraph{
		NumX: g.numVars, NumVars: int(next), Root: int(c.zvar[root]),
		ConOff: make([]int32, 1, len(cons)+1), Owner: make([]int32, 0, len(cons)),
		TermOff: make([]int32, 1, nt+1), LogCoef: make([]float64, 0, nt),
		Var: make([]int32, 0, ne), Exp: make([]float64, 0, ne),
	}
	for _, k := range cons {
		c.emit(k.z, k.span)
	}
	return c.ep, nil
}

// expand computes node id's posynomial from its children's, which are
// already expanded (children have smaller IDs), and records its span.
func (c *epiCompiler) expand(id ID, zero []bool) {
	g := c.g
	nd := &g.nodes[id]
	kids := g.children(nd)
	off := int32(len(c.terms))
	switch nd.kind {
	case kConst:
		c.terms = append(c.terms, term{b: logOf(nd.coeff), lo: 0, hi: 0})
	case kMonomial:
		lo := int32(len(c.ev))
		vs, as := g.monomial(nd)
		c.ev = append(c.ev, vs...)
		c.ea = append(c.ea, as...)
		c.terms = append(c.terms, term{b: logOf(nd.coeff), lo: lo, hi: int32(len(c.ev))})
	case kScale:
		lb := logOf(nd.coeff)
		for _, t := range c.posy(kids[0]) {
			t.b += lb
			c.terms = append(c.terms, t)
		}
	case kMul:
		a, b := c.span[kids[0]], c.span[kids[1]]
		for i := a[0]; i < a[0]+a[1]; i++ {
			for j := b[0]; j < b[0]+b[1]; j++ {
				c.terms = append(c.terms, c.product(c.terms[i], c.terms[j]))
			}
		}
	default: // kSum, or a SmoothMax with one nonzero child
		for _, ch := range kids {
			if !zero[ch] {
				c.terms = append(c.terms, c.posy(ch)...)
			}
		}
	}
	c.span[id] = [2]int32{off, int32(len(c.terms)) - off}
}

func (c *epiCompiler) posy(id ID) []term {
	s := c.span[id]
	return c.terms[s[0] : s[0]+s[1]]
}

// product multiplies two terms: coefficients add in the log, exponent
// vectors merge by variable, and an exponent that cancels to zero leaves.
func (c *epiCompiler) product(x, y term) term {
	lo := int32(len(c.ev))
	i, j := x.lo, y.lo
	for i < x.hi || j < y.hi {
		switch {
		case j >= y.hi || (i < x.hi && c.ev[i] < c.ev[j]):
			c.ev, c.ea = append(c.ev, c.ev[i]), append(c.ea, c.ea[i])
			i++
		case i >= x.hi || c.ev[j] < c.ev[i]:
			c.ev, c.ea = append(c.ev, c.ev[j]), append(c.ea, c.ea[j])
			j++
		default:
			if a := c.ea[i] + c.ea[j]; a != 0 {
				c.ev, c.ea = append(c.ev, c.ev[i]), append(c.ea, a)
			}
			i++
			j++
		}
	}
	return term{b: x.b + y.b, lo: lo, hi: int32(len(c.ev))}
}

// compareTerms orders terms by exponent vector — variables, then exponent
// bits, then length — and returns 0 only for identical vectors.
func (c *epiCompiler) compareTerms(x, y term) int {
	for i, j := x.lo, y.lo; i < x.hi && j < y.hi; i, j = i+1, j+1 {
		if r := cmp.Compare(c.ev[i], c.ev[j]); r != 0 {
			return r
		}
		if r := cmp.Compare(math.Float64bits(c.ea[i]), math.Float64bits(c.ea[j])); r != 0 {
			return r
		}
	}
	return cmp.Compare(x.hi-x.lo, y.hi-y.lo)
}

// emit appends the constraint posy(span) · e^{−z} ≤ 1: the span's terms,
// like ones merged (their coefficients summed, in the log, in their order
// within the span), each extended by z with exponent −1 — z is above every
// variable a child mentions, so the entries stay sorted.
func (c *epiCompiler) emit(z int32, span [2]int32) {
	ts := append(c.sort[:0], c.terms[span[0]:span[0]+span[1]]...)
	c.sort = ts
	slices.SortStableFunc(ts, c.compareTerms)
	ep := c.ep
	for k := 0; k < len(ts); {
		run := k + 1
		for run < len(ts) && c.compareTerms(ts[k], ts[run]) == 0 {
			run++
		}
		b := ts[k].b
		if run > k+1 {
			m := b
			for _, t := range ts[k+1 : run] {
				m = max(m, t.b)
			}
			s := 0.0
			for _, t := range ts[k:run] {
				s += expOf(t.b - m)
			}
			b = m + math.Log(s)
		}
		t := ts[k]
		ep.Var = append(append(ep.Var, c.ev[t.lo:t.hi]...), z)
		ep.Exp = append(append(ep.Exp, c.ea[t.lo:t.hi]...), -1)
		ep.LogCoef = append(ep.LogCoef, b)
		ep.TermOff = append(ep.TermOff, int32(len(ep.Var)))
		k = run
	}
	ep.Owner = append(ep.Owner, z)
	ep.ConOff = append(ep.ConOff, int32(len(ep.LogCoef)))
}

// Start returns a strictly feasible point of the program: x (which must
// have NumX entries), then each epigraph variable margin above the log of
// the largest of its node's children at x (see Lift).
func (ep *Epigraph) Start(x []float64, margin float64) []float64 {
	u := make([]float64, ep.NumVars)
	copy(u, x[:ep.NumX])
	ep.Lift(u, margin)
	return u
}

// Lift sets every epigraph variable of u from its x part: margin above the
// log of the largest of its node's children, in owner order, so every
// variable a constraint mentions besides its owner is already set. With
// margin 0 it is the exact value of every max at x, and u[Root] the log
// of the root's exact value.
func (ep *Epigraph) Lift(u []float64, margin float64) {
	for i := 0; i < len(ep.Owner); {
		o := ep.Owner[i]
		u[o] = 0
		top := math.Inf(-1)
		for ; i < len(ep.Owner) && ep.Owner[i] == o; i++ {
			top = max(top, ep.conValue(i, u))
		}
		u[o] = top + margin
	}
}

// conValue evaluates constraint i's left-hand side, log Σ_t exp(b_t + a_t·u)
// — by construction it reads u[Owner[i]] as the term's −1, so with the
// owner at 0 it is the log of the child's value.
func (ep *Epigraph) conValue(i int, u []float64) float64 {
	lo, hi := ep.ConOff[i], ep.ConOff[i+1]
	top := math.Inf(-1)
	for t := lo; t < hi; t++ {
		top = max(top, ep.exponent(t, u))
	}
	sum := 0.0
	for t := lo; t < hi; t++ {
		sum += expOf(ep.exponent(t, u) - top)
	}
	return top + logOf(sum)
}

// exponent is term t's b_t + a_t·u.
func (ep *Epigraph) exponent(t int32, u []float64) float64 {
	v := ep.LogCoef[t]
	for k := ep.TermOff[t]; k < ep.TermOff[t+1]; k++ {
		v += ep.Exp[k] * u[ep.Var[k]]
	}
	return v
}

// expOf and logOf are math.Exp and math.Log answering exp(0) = 1 and
// log(1) = 0, the values those return exactly, without the call: a sum's
// largest term, a lone term and a unit coefficient are common.
func expOf(x float64) float64 {
	if x == 0 {
		return 1
	}
	return math.Exp(x)
}

func logOf(x float64) float64 {
	if x == 1 {
		return 0
	}
	return math.Log(x)
}
