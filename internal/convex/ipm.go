package convex

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"paradigm/internal/expr"
)

// The interior-point method's constants. They are properties of the
// method, not tuning knobs: the stop rule is a certificate in the
// program's own units, the step rules are the textbook ones.
const (
	// gapTol stops the solve once the certificate — the duality gap at the
	// returned x's exact epigraph point, an upper bound on how far its
	// objective, a log, sits above the optimum (see certify) — is at most
	// 1e-9: Φ at x is within a factor e^{1e-9} ≈ 1 + 1e-9 of the optimum.
	gapTol = 1e-9
	// feasTol bounds the dual residual's norm the certificate needs beside
	// the gap: the residual enters the bound only through its product with
	// the iterate's distance to the optimum (see certify).
	feasTol = 1e-8
	// sigmaMin is the least centring weight a step takes, so the gap falls
	// at most a hundredfold per iteration (see newtonStep). Faster, the
	// allocation variables no active constraint pins (a non-critical
	// node's) lag their analytic centre by more than the stop rule's
	// resolution when the gap gets there.
	sigmaMin = 1e-2
	// toBoundary is the fraction of the way to the boundary of s, λ ≥ 0
	// (and of the box) a step may go.
	toBoundary = 0.99
	// armijo and backtrack are the residual line search's sufficient
	// decrease and shrink factors.
	armijo, backtrack = 0.01, 0.5
	// ipmMaxIter caps iterations; a solve that reaches it reports
	// MaxIterReached. The allocator's programs take tens.
	ipmMaxIter = 200
	// startMargin is how far above its children's value, in log units,
	// the start point puts every epigraph variable.
	startMargin = 0.5
	// refineTol is the residual, relative to the right side, below which
	// a Sherman–Morrison solve is not refined (see solveRefined).
	refineTol = 1e-12
	// denseSupport is the smallest support of a constraint whose rank-one
	// Hessian term is kept out of the sparse factor (see ipm.dense).
	denseSupport = 16
)

// errNotInterior reports a start point outside the program's interior:
// only a NaN in x0 can make one.
var errNotInterior = errors.New("convex: start point is not strictly feasible")

// ipm is one primal-dual interior-point solve of an epigraph program:
// minimise u[Root] subject to the log-sum-exp constraints
// f_i(u) = log Σ_t exp(b_t + a_t·u) ≤ 0 and the box lower ≤ x ≤ upper on
// the first NumX variables. Each constraint has a slack, f_i + s_i = 0
// with s_i > 0, so iterates may leave the nonlinear constraints (only s,
// λ and the box are kept positive) and the step length is set by those
// linear bounds alone, as in CVXOPT's cp and the nonlinear solvers after
// it. Each iteration solves the reduced Newton system
//
//	(Σ_i λ_i∇²f_i + (λ_i/s_i)∇f_i∇f_iᵀ + box barrier) Δu = rhs
//
// by sparse Cholesky, recovers Δs and Δλ from it, picks the centring by
// Mehrotra's rule and backtracks on the primal-dual residual. Variables
// with lower == upper are constants: they stay out of the system, their
// box and every support.
type ipm struct {
	ep           *expr.Epigraph
	lower, upper []float64
	free         []bool // per x variable: lower < upper
	n, m, mTot   int    // variables, constraints, constraints with the box's

	// Constraint i's support — the free variables its terms mention,
	// ascending — is supVar[supOff[i]:supOff[i+1]]; entLoc[k] is entry
	// k's index in its constraint's support, −1 for a fixed variable.
	supOff, supVar, entLoc []int32
	// dense is the constraint with the largest support if that holds at
	// least denseSupport variables and a quarter of all, −1 otherwise: its
	// rank-one Hessian term, dense across the support, is applied by
	// Sherman–Morrison instead of entering the factor. For the allocator
	// it is A_p's constraint.
	dense int32
	// The Hessian's entries, as positions in the factor: pairPos and
	// pairCoef[pairOff[t]:pairOff[t+1]] are term t's entry pairs (a, b ≤ a)
	// and a_a·a_b, for its w_t·a_t a_tᵀ; blkPos[blkOff[i]:blkOff[i+1]] are
	// the pairs of a sparse constraint's support, for its rank-one term.
	pairOff, pairPos, blkOff, blkPos []int32
	pairCoef                         []float64
	diagPos                          []int32 // per x variable
	chol                             *cholesky

	cur, trial *point
	// The Newton step and its centring half (see newtonStep).
	step, cen direction
	rd        []float64 // the dual residual (dualResidual)
	// Sherman–Morrison over the dense constraint (prepareDense): S⁻¹g, σ
	// and the denominator, and the refinement's vectors, one pair per
	// right side.
	v            []float64
	refX, refR   [2][]float64
	sigma, denom float64
	// merits holds the last iterations' residuals: the line search asks
	// for a decrease on their largest, not on the current one alone, so a
	// step whose second-order effects briefly raise the residual is kept.
	merits [4]float64
	evals  int
}

// point is one primal-dual iterate — u, the slacks s, the multipliers λ
// and the box's λL and λU — and the constraints' evaluation at u: value f,
// the terms' normalised weights w (the softmax the Hessian needs) and the
// gradient g over each support.
type point struct {
	u, s, lam, lamL, lamU []float64
	f, w, g               []float64
}

// direction is a step in (u, s, λ, λL, λU).
type direction struct {
	du, ds, dlam, dlamL, dlamU []float64
}

// MinimizeEpigraph solves ep's program exactly by a primal-dual interior-
// point method from x0 (projected onto the box, then pulled a tenth of
// the way toward its midpoint so that it is strictly inside; variables
// with lower == upper are fixed there), the epigraph variables starting
// startMargin above their children. It stops with Status GapConverged once the certificate is at
// most gapTol (see certify), and reports X as the x part of the final
// point, F as the log of the root's exact value at X, and Gap as the
// certificate: F is within Gap of the optimum. Evals counts evaluations of
// the constraints.
//
// onIter, when non-nil, is called after every iteration with the running
// Result (X nil, Iters and Evals cumulative, Status Stepped until the last
// call, which carries the final status); a non-nil error aborts the solve
// and is returned — the hook the allocator uses for cancellation.
func MinimizeEpigraph(ep *expr.Epigraph, lower, upper, x0 []float64, onIter func(Result) error) (Result, error) {
	nx := ep.NumX
	if len(lower) != nx || len(upper) != nx || len(x0) != nx {
		return Result{}, fmt.Errorf("convex: bounds %d/%d and start %d, want %d", len(lower), len(upper), len(x0), nx)
	}
	for i := range lower {
		if !(lower[i] <= upper[i]) {
			return Result{}, fmt.Errorf("convex: lower[%d]=%v > upper[%d]=%v", i, lower[i], i, upper[i])
		}
	}
	s := newIPM(ep, lower, upper)
	x := make([]float64, nx)
	for i := range x {
		mid := 0.5 * (lower[i] + upper[i])
		x[i] = mid
		if s.free[i] {
			x[i] = 0.9*clamp(x0[i], lower[i], upper[i]) + 0.1*mid
		}
	}
	copy(s.cur.u, ep.Start(x, startMargin))
	return s.run(onIter)
}

func newIPM(ep *expr.Epigraph, lower, upper []float64) *ipm {
	n, m, nx := ep.NumVars, ep.NumConstraints(), ep.NumX
	s := &ipm{ep: ep, lower: lower, upper: upper, free: make([]bool, nx), n: n, m: m, mTot: m}
	for i := range s.free {
		s.free[i] = lower[i] < upper[i]
		if s.free[i] {
			s.mTot += 2
		}
	}
	isFree := func(v int32) bool { return int(v) >= nx || s.free[v] }

	// Supports: each constraint's free variables, ascending, found with a
	// stamp per variable; entries map to their local index.
	s.supOff = make([]int32, m+1)
	s.supVar = make([]int32, 0, len(ep.Var))
	s.entLoc = make([]int32, len(ep.Var))
	stamp := make([]int32, n)
	local := make([]int32, n)
	s.dense = -1
	supportOf := func(i int32) int {
		if i < 0 {
			return 0
		}
		return int(s.supOff[i+1] - s.supOff[i])
	}
	for i := range m {
		lo := len(s.supVar)
		for k := ep.TermOff[ep.ConOff[i]]; k < ep.TermOff[ep.ConOff[i+1]]; k++ {
			if v := ep.Var[k]; isFree(v) && stamp[v] != int32(i+1) {
				stamp[v] = int32(i + 1)
				s.supVar = append(s.supVar, v)
			}
		}
		sup := s.supVar[lo:]
		slices.Sort(sup)
		for a, v := range sup {
			local[v] = int32(a)
		}
		for k := ep.TermOff[ep.ConOff[i]]; k < ep.TermOff[ep.ConOff[i+1]]; k++ {
			s.entLoc[k] = -1
			if v := ep.Var[k]; isFree(v) {
				s.entLoc[k] = local[v]
			}
		}
		s.supOff[i+1] = int32(len(s.supVar))
		if len(sup) > supportOf(s.dense) {
			s.dense = int32(i)
		}
	}
	if k := supportOf(s.dense); k < denseSupport || 4*k < n {
		s.dense = -1
	}

	// The factor's graph: every sparse constraint's support is a clique,
	// and each term of a dense one couples only its own entries.
	nq := m
	if s.dense >= 0 {
		nq += int(ep.ConOff[s.dense+1] - ep.ConOff[s.dense])
	}
	cliqOff := make([]int32, 1, nq+1)
	cliqVar := make([]int32, 0, len(s.supVar))
	for i := range m {
		if int32(i) != s.dense {
			cliqVar = append(cliqVar, s.supVar[s.supOff[i]:s.supOff[i+1]]...)
			cliqOff = append(cliqOff, int32(len(cliqVar)))
			continue
		}
		for t := ep.ConOff[i]; t < ep.ConOff[i+1]; t++ {
			for k := ep.TermOff[t]; k < ep.TermOff[t+1]; k++ {
				if s.entLoc[k] >= 0 {
					cliqVar = append(cliqVar, ep.Var[k])
				}
			}
			cliqOff = append(cliqOff, int32(len(cliqVar)))
		}
	}
	s.chol = newCholesky(n, cliqOff, cliqVar)

	// The Hessian's entries, in the order newtonStep adds them — each
	// term's pairs, each sparse constraint's support pairs, then the
	// diagonal — as variable pairs, resolved to factor positions at once.
	pairs, blocks := 0, 0
	for t := range ep.LogCoef {
		k := 0
		for e := ep.TermOff[t]; e < ep.TermOff[t+1]; e++ {
			if s.entLoc[e] >= 0 {
				k++
			}
		}
		pairs += k * (k + 1) / 2
	}
	for i := range m {
		if k := int(s.supOff[i+1] - s.supOff[i]); int32(i) != s.dense {
			blocks += k * (k + 1) / 2
		}
	}
	ab := make([]int32, 0, 2*(pairs+blocks+nx))
	s.pairOff = make([]int32, len(ep.LogCoef)+1)
	s.pairCoef = make([]float64, 0, pairs)
	for t := range ep.LogCoef {
		for e := ep.TermOff[t]; e < ep.TermOff[t+1]; e++ {
			for e2 := ep.TermOff[t]; e2 <= e; e2++ {
				if s.entLoc[e] >= 0 && s.entLoc[e2] >= 0 {
					ab = append(ab, ep.Var[e], ep.Var[e2])
					s.pairCoef = append(s.pairCoef, ep.Exp[e]*ep.Exp[e2])
				}
			}
		}
		s.pairOff[t+1] = int32(len(s.pairCoef))
	}
	s.blkOff = make([]int32, m+1)
	for i := range m {
		if int32(i) != s.dense {
			sup := s.supVar[s.supOff[i]:s.supOff[i+1]]
			for a := range sup {
				for b := 0; b <= a; b++ {
					ab = append(ab, sup[a], sup[b])
				}
			}
		}
		s.blkOff[i+1] = int32(len(ab)/2 - pairs)
	}
	for v := range nx {
		ab = append(ab, int32(v), int32(v))
	}
	pos := make([]int32, len(ab)/2)
	s.chol.positions(ab, pos)
	s.pairPos, s.blkPos, s.diagPos = pos[:pairs], pos[pairs:pairs+blocks], pos[pairs+blocks:]

	// One backing buffer for every per-iteration vector.
	nt, ng := len(ep.LogCoef), len(s.supVar)
	s.cur, s.trial = &point{}, &point{}
	type vec struct {
		v *[]float64
		n int
	}
	var vecs []vec
	for _, p := range []*point{s.cur, s.trial} {
		vecs = append(vecs, vec{&p.u, n}, vec{&p.s, m}, vec{&p.lam, m}, vec{&p.lamL, nx}, vec{&p.lamU, nx},
			vec{&p.f, m}, vec{&p.w, nt}, vec{&p.g, ng})
	}
	for _, d := range []*direction{&s.step, &s.cen} {
		vecs = append(vecs, vec{&d.du, n}, vec{&d.ds, m}, vec{&d.dlam, m}, vec{&d.dlamL, nx}, vec{&d.dlamU, nx})
	}
	vecs = append(vecs, vec{&s.rd, n})
	if s.dense >= 0 {
		vecs = append(vecs, vec{&s.v, n}, vec{&s.refX[0], n}, vec{&s.refR[0], n}, vec{&s.refX[1], n}, vec{&s.refR[1], n})
	}
	total := 0
	for _, v := range vecs {
		total += v.n
	}
	buf := make([]float64, total)
	for _, v := range vecs {
		*v.v, buf = buf[:v.n:v.n], buf[v.n:]
	}
	return s
}

// evaluate computes every constraint at p.u: its value, its terms'
// normalised weights and its gradient over its support.
func (s *ipm) evaluate(p *point) {
	s.evals++
	ep := s.ep
	for i := range s.m {
		t0, t1 := ep.ConOff[i], ep.ConOff[i+1]
		w := p.w[t0:t1]
		top := math.Inf(-1)
		for j := range w {
			t := t0 + int32(j)
			lo, hi := ep.TermOff[t], ep.TermOff[t+1]
			vars, exps := ep.Var[lo:hi], ep.Exp[lo:hi]
			exps = exps[:len(vars)]
			v := ep.LogCoef[t]
			for k, x := range vars {
				v += exps[k] * p.u[x]
			}
			w[j] = v
			top = max(top, v)
		}
		sum := 0.0
		for j := range w {
			w[j] = expOf(w[j] - top)
			sum += w[j]
		}
		p.f[i] = top + logOf(sum)
		gi := p.g[s.supOff[i]:s.supOff[i+1]]
		clear(gi)
		for j := range w {
			wt := w[j] / sum
			w[j] = wt
			lo, hi := ep.TermOff[t0+int32(j)], ep.TermOff[t0+int32(j)+1]
			locs, exps := s.entLoc[lo:hi], ep.Exp[lo:hi]
			exps = exps[:len(locs)]
			for k, a := range locs {
				if a >= 0 {
					gi[a] += wt * exps[k]
				}
			}
		}
	}
}

// gap is the duality gap η = sᵀλ over every constraint, the box's (whose
// slacks are u − lower and upper − u) included.
func (s *ipm) gap(p *point) float64 {
	eta := 0.0
	for i, l := range p.lam {
		eta += l * p.s[i]
	}
	for v, free := range s.free {
		if free {
			eta += p.lamL[v]*(p.u[v]-s.lower[v]) + p.lamU[v]*(s.upper[v]-p.u[v])
		}
	}
	return eta
}

// dualResidual writes the dual residual c + Σλ∇f (the box's multipliers
// included) into rd and returns its squared norm.
func (s *ipm) dualResidual(p *point, rd []float64) float64 {
	clear(rd)
	rd[s.ep.Root] = 1
	for i, l := range p.lam {
		sup, gi := s.supVar[s.supOff[i]:s.supOff[i+1]], p.g[s.supOff[i]:s.supOff[i+1]]
		gi = gi[:len(sup)]
		for a, v := range sup {
			rd[v] += l * gi[a]
		}
	}
	for v, free := range s.free {
		if free {
			rd[v] += p.lamU[v] - p.lamL[v]
		}
	}
	d2 := 0.0
	for _, r := range rd {
		d2 += r * r
	}
	return d2
}

// restResidual returns the squared norm of the rest of the primal-dual
// residual at centring parameter 1/invT: primal f + s, and
// complementarity sλ − 1/t, the box's included. The whole residual's
// norm is √(dualResidual + restResidual).
func (s *ipm) restResidual(p *point, invT float64) float64 {
	rest := 0.0
	for i, l := range p.lam {
		rp, rc := p.f[i]+p.s[i], l*p.s[i]-invT
		rest += rp*rp + rc*rc
	}
	for v, free := range s.free {
		if free {
			rl := p.lamL[v]*(p.u[v]-s.lower[v]) - invT
			ru := p.lamU[v]*(s.upper[v]-p.u[v]) - invT
			rest += rl*rl + ru*ru
		}
	}
	return rest
}

// run iterates from the start point in s.cur — slacks on the constraint
// values, multipliers 1/slack — until the certificate passes, the cap is
// reached or no step passes the line search, calling onIter after every
// iteration.
func (s *ipm) run(onIter func(Result) error) (Result, error) {
	ep, p := s.ep, s.cur
	for v, free := range s.free {
		if free && !(p.u[v] > s.lower[v] && p.u[v] < s.upper[v]) {
			return Result{}, errNotInterior
		}
	}
	s.evaluate(p)
	for i, fi := range p.f {
		if !(fi < 0) {
			return Result{}, errNotInterior
		}
		p.s[i] = -fi
		p.lam[i] = 1 / -fi
	}
	for v, free := range s.free {
		if free {
			p.lamL[v] = 1 / (p.u[v] - s.lower[v])
			p.lamU[v] = 1 / (s.upper[v] - p.u[v])
		}
	}
	res := Result{}
	// d2 is the current point's dualResidual: the line search computes it
	// for the point it moves to.
	d2 := s.dualResidual(p, s.rd)
	for {
		p = s.cur
		eta := s.gap(p)
		dNorm := math.Sqrt(d2)
		res.F, res.Gap, res.Evals = p.u[ep.Root], eta, s.evals
		res.Status = Stepped
		// The certificate costs an evaluation, so it is tried only once
		// the iterate's own gap is within a hundredfold of the stop rule,
		// where the lifted point's — the iterate's, less the slack of
		// constraints far from active, plus what active ones violate —
		// can pass.
		if eta <= 100*gapTol && dNorm <= feasTol {
			res.F, res.Gap = s.certify()
			if res.Gap <= gapTol {
				res.Status = GapConverged
			}
		}
		if res.Status == Stepped {
			if res.Iters >= ipmMaxIter {
				res.Status = MaxIterReached
			} else if invT := s.newtonStep(eta); !s.lineSearch(invT, &d2, res.Iters) {
				res.Status = LineSearchStalled
			}
			if res.Status != Stepped {
				res.F, res.Gap = s.certify()
			}
		}
		if onIter != nil && res.Iters > 0 {
			if err := onIter(res); err != nil {
				return Result{}, err
			}
		}
		if res.Status != Stepped {
			break
		}
		res.Iters++
	}
	res.X = append([]float64(nil), s.cur.u[:ep.NumX]...)
	return res, nil
}

// certify lifts the current x to its exact epigraph point — every
// epigraph variable on its largest child (expr.Epigraph.Lift), so every
// constraint holds and the objective is the log of the root's exact value
// at x — and returns that value with the certificate bounding how far it
// lies above the optimum: the duality gap at the lifted point under the
// current multipliers, Σ_i λ_i·(−f_i) plus the box's. By weak duality the
// optimum is at least the Lagrangian there, less the dual residual's
// product with the distance to the optimum; the residual is required
// small beside it (feasTol) and the distance is small at the end.
func (s *ipm) certify() (lifted, cert float64) {
	p, q := s.cur, s.trial
	copy(q.u, p.u)
	s.ep.Lift(q.u, 0)
	copy(q.lam, p.lam)
	copy(q.lamL, p.lamL)
	copy(q.lamU, p.lamU)
	s.evaluate(q)
	for i := range q.s {
		q.s[i] = -q.f[i]
	}
	return q.u[s.ep.Root], s.gap(q)
}

// newtonStep assembles and factors the reduced Newton system at the
// current point, leaves the step in s.step and returns its centring
// parameter 1/t. The matrix does not depend on t and the right side is
// affine in 1/t, so one factorisation yields both the affine direction
// (1/t = 0) and the centring one, Δ(t) = Δ_aff + (1/t)·Δ_cen; 1/t is
// then σ·η/m by Mehrotra's rule, σ = (η_aff/η)³, with η_aff the gap after
// the longest affine step that keeps s, λ and the box positive. σ is held
// to at least sigmaMin, and the target gap 1/t·m to at least a tenth of
// gapTol: a step asked for more lets the gap outrun the residuals, which
// the next steps then cannot close in double precision.
func (s *ipm) newtonStep(eta float64) float64 {
	ep, c, p := s.ep, s.chol, s.cur
	aff, cen := &s.step, &s.cen
	clear(c.val)
	// Right sides: the affine −c − Σ_i λ_i(f_i + s_i)/s_i·∇f_i and the
	// centring −Σ_i ∇f_i/s_i, plus the box's terms below.
	du, duc := aff.du, cen.du
	clear(du)
	clear(duc)
	du[ep.Root] = -1
	for i := range s.m {
		lam, si := p.lam[i], p.s[i]
		sup := s.supVar[s.supOff[i]:s.supOff[i+1]]
		gi := p.g[s.supOff[i]:s.supOff[i+1]]
		ra := lam * (p.f[i] + si) / si
		for a, v := range sup {
			du[v] -= ra * gi[a]
			duc[v] -= gi[a] / si
		}
		// λ∇²f = λ(Σ_t w_t a_t a_tᵀ − g gᵀ); with the barrier's
		// (λ/s)·g gᵀ the rank-one part is sigma·g gᵀ.
		for t := ep.ConOff[i]; t < ep.ConOff[i+1]; t++ {
			lw := lam * p.w[t]
			pos, coef := s.pairPos[s.pairOff[t]:s.pairOff[t+1]], s.pairCoef[s.pairOff[t]:s.pairOff[t+1]]
			coef = coef[:len(pos)]
			for k, q := range pos {
				c.val[q] += lw * coef[k]
			}
		}
		if int32(i) == s.dense {
			clear(s.v)
			for a, v := range sup {
				s.v[v] = gi[a]
			}
			continue
		}
		sigma := lam/si - lam
		pos := s.blkPos[s.blkOff[i]:s.blkOff[i+1]]
		k := 0
		for a := range sup {
			sg := sigma * gi[a]
			for b := 0; b <= a; b++ {
				c.val[pos[k]] += sg * gi[b]
				k++
			}
		}
	}
	for v, free := range s.free {
		d := s.diagPos[v]
		if !free {
			c.val[d] = 1
			continue
		}
		dl, dh := p.u[v]-s.lower[v], s.upper[v]-p.u[v]
		c.val[d] += p.lamL[v]/dl + p.lamU[v]/dh
		duc[v] += 1/dl - 1/dh
	}
	c.factor()
	if s.dense < 0 {
		c.solve(du, duc)
	} else {
		s.prepareDense()
		s.solveRefined(du, duc)
	}

	// Both halves of Δs and Δλ. From ∇fᵀΔu + Δs = −(f + s) and
	// sΔλ + λΔs = 1/t − sλ: Δλ = (λ(∇fᵀΔu + f) + 1/t)/s.
	for i := range s.m {
		da, dc := 0.0, 0.0
		for k := s.supOff[i]; k < s.supOff[i+1]; k++ {
			da += p.g[k] * du[s.supVar[k]]
			dc += p.g[k] * duc[s.supVar[k]]
		}
		l, si, fi := p.lam[i], p.s[i], p.f[i]
		aff.ds[i], cen.ds[i] = -(fi+si)-da, -dc
		aff.dlam[i], cen.dlam[i] = l*(da+fi)/si, (1+l*dc)/si
	}
	for v, free := range s.free {
		if !free {
			du[v], duc[v] = 0, 0
			continue
		}
		lL, lU := p.lamL[v], p.lamU[v]
		dl, dh := p.u[v]-s.lower[v], s.upper[v]-p.u[v]
		aff.dlamL[v], cen.dlamL[v] = -lL-lL*du[v]/dl, (1-lL*duc[v])/dl
		aff.dlamU[v], cen.dlamU[v] = -lU+lU*du[v]/dh, (1+lU*duc[v])/dh
	}
	step := s.maxStep(aff)
	etaAff := 0.0
	for i, l := range p.lam {
		etaAff += (l + step*aff.dlam[i]) * (p.s[i] + step*aff.ds[i])
	}
	for v, free := range s.free {
		if free {
			etaAff += (p.lamL[v]+step*aff.dlamL[v])*(p.u[v]-s.lower[v]+step*du[v]) +
				(p.lamU[v]+step*aff.dlamU[v])*(s.upper[v]-p.u[v]-step*du[v])
		}
	}
	sigma := min(max(math.Pow(max(etaAff, 0)/eta, 3), 0.1*gapTol/eta, sigmaMin), 1)
	invT := sigma * eta / float64(s.mTot)
	aff.axpy(invT, cen)
	return invT
}

// axpy adds a·e to d.
func (d *direction) axpy(a float64, e *direction) {
	for _, pair := range [][2][]float64{{d.du, e.du}, {d.ds, e.ds}, {d.dlam, e.dlam}, {d.dlamL, e.dlamL}, {d.dlamU, e.dlamU}} {
		for i, v := range pair[1] {
			pair[0][i] += a * v
		}
	}
}

// prepareDense readies solves with the whole matrix S + σ·g gᵀ, g and σ
// the dense constraint's gradient and rank-one weight, once S, the sparse
// part, is factored: v = S⁻¹g and 1 + σ·gᵀv, Sherman–Morrison's
// denominator (positive: both S and the whole matrix are positive
// definite).
func (s *ipm) prepareDense() {
	p, i := s.cur, s.dense
	s.sigma = p.lam[i]/p.s[i] - p.lam[i]
	s.chol.solve(s.v)
	s.denom = 1 + s.sigma*s.gdot(s.v)
}

// gdot is the dense constraint's gradient times x.
func (s *ipm) gdot(x []float64) float64 {
	i := s.dense
	sum := 0.0
	for j := s.supOff[i]; j < s.supOff[i+1]; j++ {
		sum += s.cur.g[j] * x[s.supVar[j]]
	}
	return sum
}

// solveSM overwrites each of ys, one or two right sides, with the whole
// matrix's inverse times it by Sherman–Morrison: S⁻¹y − v·σ·gᵀS⁻¹y /
// (1 + σ·gᵀv).
func (s *ipm) solveSM(ys ...[]float64) {
	s.chol.solve(ys...)
	for _, y := range ys {
		c := s.sigma * s.gdot(y) / s.denom
		for j, vj := range s.v {
			y[j] -= c * vj
		}
	}
}

// solveRefined overwrites b0 and b1 with the whole matrix's inverse times
// each by Sherman–Morrison, refined against the matrix itself (hmul)
// while a side's residual stays above refineTol of it, at most twice.
// The two sides share every pass over the factor while both are refined;
// each keeps its own refinement decision, and its operations their order.
// Refinement is what keeps the formula usable late in a solve: an active
// dense constraint's σ = λ/s grows without bound, and S⁻¹ then resolves
// the solution's component along g only to an absolute error that σ
// magnifies in the residual.
func (s *ipm) solveRefined(b0, b1 []float64) {
	// x[:live], r[:live] and b[:live] are the sides still being refined.
	x, r, b := s.refX, s.refR, [2][]float64{b0, b1}
	var scale [2]float64
	for j := range b {
		copy(x[j], b[j])
		for _, v := range b[j] {
			scale[j] = max(scale[j], math.Abs(v))
		}
	}
	s.solveSM(x[:]...)
	live := len(b)
	for range 2 {
		s.hmul(x[:live], r[:live])
		kept := 0
		for j := range live {
			worst := 0.0
			for v := range r[j] {
				r[j][v] = b[j][v] - r[j][v]
				worst = max(worst, math.Abs(r[j][v]))
			}
			if worst > refineTol*scale[j] {
				x[kept], r[kept], b[kept], scale[kept] = x[j], r[j], b[j], scale[j]
				kept++
			}
		}
		if live = kept; live == 0 {
			break
		}
		s.solveSM(r[:live]...)
		for j := range live {
			for v := range x[j] {
				x[j][v] += r[j][v]
			}
		}
	}
	copy(b0, s.refX[0])
	copy(b1, s.refX[1])
}

// hmul writes the reduced Newton matrix times each of xs, one or two,
// into the matching outs: the factored sparse part's product plus the
// dense constraint's σ·g(gᵀx).
func (s *ipm) hmul(xs, outs [][]float64) {
	if len(xs) == 2 {
		s.chol.mul2(xs[0], xs[1], outs[0], outs[1])
	} else {
		s.chol.mul(xs[0], outs[0])
	}
	i := s.dense
	gi := s.cur.g[s.supOff[i]:s.supOff[i+1]]
	for j, x := range xs {
		c := s.sigma * s.gdot(x)
		for a, v := range s.supVar[s.supOff[i]:s.supOff[i+1]] {
			outs[j][v] += c * gi[a]
		}
	}
}

// maxStep is the longest step ≤ 1 along d that keeps s, λ and the box
// positive.
func (s *ipm) maxStep(d *direction) float64 {
	p, step := s.cur, 1.0
	shrink := func(v, dv float64) {
		if dv < 0 {
			step = min(step, -v/dv)
		}
	}
	for i := range p.lam {
		shrink(p.s[i], d.ds[i])
		shrink(p.lam[i], d.dlam[i])
	}
	for v, free := range s.free {
		if free {
			shrink(p.lamL[v], d.dlamL[v])
			shrink(p.lamU[v], d.dlamU[v])
			shrink(p.u[v]-s.lower[v], d.du[v])
			shrink(s.upper[v]-p.u[v], -d.du[v])
		}
	}
	return step
}

// lineSearch takes toBoundary of the longest step ≤ 1 along s.step that
// keeps s, λ and the box positive, backtracks it until the primal-dual
// residual at centring 1/t = invT falls by the factor 1 − armijo·step below
// the largest of the last len(merits) iterations' (a non-monotone rule:
// Grippo, Lampariello and Lucidi), and moves there. It reports false when
// no step passes. *d2 is the current point's dualResidual, which does not
// depend on invT; a step sets it to the new point's.
func (s *ipm) lineSearch(invT float64, d2 *float64, iter int) bool {
	p, q, d := s.cur, s.trial, &s.step
	r0 := math.Sqrt(*d2 + s.restResidual(p, invT))
	s.merits[iter%len(s.merits)] = r0
	ref := slices.Max(s.merits[:])
	step := toBoundary * s.maxStep(d)
	for range 60 {
		for v := range p.u {
			q.u[v] = p.u[v] + step*d.du[v]
		}
		for i := range p.lam {
			q.s[i] = p.s[i] + step*d.ds[i]
			q.lam[i] = p.lam[i] + step*d.dlam[i]
		}
		for v := range p.lamL {
			q.lamL[v] = p.lamL[v] + step*d.dlamL[v]
			q.lamU[v] = p.lamU[v] + step*d.dlamU[v]
		}
		s.evaluate(q)
		// A constraint the trial satisfies takes its slack from its value
		// — unless that would more than halve the slack — so the slacks of
		// constraints far from active never drift off their values and
		// block steps with a residual that certifies nothing.
		for i, f := range q.f {
			if -f >= q.s[i]/2 {
				q.s[i] = -f
			}
		}
		qd2 := s.dualResidual(q, s.rd)
		if r := math.Sqrt(qd2 + s.restResidual(q, invT)); r <= (1-armijo*step)*ref {
			s.cur, s.trial, *d2 = q, p, qd2
			return true
		}
		step *= backtrack
	}
	return false
}
