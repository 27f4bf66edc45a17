// Package oracle is the repository's verification oracle: an independent
// checking layer that re-derives, from the paper's equations alone, what
// an allocation, a schedule and a simulated run must satisfy, and exact
// small-instance references the production solvers are differential-tested
// against.
//
// The package deliberately reimplements the Section 2/4 cost semantics —
// Amdahl processing (Equation 1), the 1D/2D transfer regimes (Equations
// 2–3) and the blocked-2D grid extensions — in its own arithmetic, its own
// topological order and its own critical-path relaxation, sharing nothing
// with internal/costmodel or internal/sched beyond the parameter structs.
// A bug in the production evaluation path and an identical bug here would
// have to be introduced twice, independently, in different code, which is
// the point of an oracle.
//
// Four layers:
//
//   - Invariant checkers (check.go): CheckAllocation re-derives
//     Φ = max(A_p, C_p), verifies box bounds, and probes log-space
//     midpoint convexity of the objective (the Lemma 1–2 posynomial
//     property the convex formulation rests on); CheckSchedule re-verifies
//     precedence, processor-capacity exclusivity, weight-consistent
//     durations and the two makespan lower bounds (critical path and
//     processor-time area); CheckRun validates a simulated run's trace
//     against conservation and causality invariants.
//
//   - Exact references (exact.go): BruteForceAlloc grid-searches
//     discretized allocations on small MDGs; ExhaustiveSchedules
//     enumerates every list-scheduling order (every linear extension of
//     the MDG) under the PSA placement rule, bracketing any list
//     schedule's makespan between its Best and Worst.
//
//   - Metamorphic relations (metamorphic.go): cost-scaling covariance,
//     processor-count monotonicity and node-relabeling invariance —
//     properties the optimal Φ and PSA must satisfy without knowing the
//     true optimum.
//
//   - Deterministic generators and fuzz decoders (gen.go): seeded random
//     small MDGs for the differential suites, and total byte-string
//     decoders that let the native Go fuzz targets (FuzzSolve, FuzzPSA,
//     FuzzMDGParse) drive arbitrary inputs through the checkers.
package oracle

import (
	"math"

	"paradigm/internal/costmodel"
	"paradigm/internal/mdg"
)

// Options tunes the checkers. The zero value selects robust defaults.
type Options struct {
	// RelTol is the relative tolerance for float comparisons between the
	// oracle's re-derived values and the production values (default 1e-9:
	// the two paths compute the same reals in different association
	// orders, so only rounding noise separates them).
	RelTol float64
	// ConvexProbes is the number of random log-space midpoint convexity
	// probes CheckAllocation performs (default 32; 0 keeps the default,
	// negative disables probing).
	ConvexProbes int
	// Seed drives the deterministic probe generator (default 1).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.RelTol <= 0 {
		o.RelTol = 1e-9
	}
	if o.ConvexProbes == 0 {
		o.ConvexProbes = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// close reports |a-b| <= tol·max(1,|a|,|b|).
func (o Options) close(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= o.RelTol*scale
}

// --- Independent cost evaluation ------------------------------------------
//
// Everything below re-derives the cost semantics from the paper's
// equations, on purpose without calling costmodel's evaluation methods.

// processing is Equation 1: t^C = (α + (1-α)/p)·τ.
func processing(alpha, tau, p float64) float64 {
	return (alpha + (1-alpha)/p) * tau
}

// transfer evaluates one array's (send, net, recv) costs from the
// equations: Equation 2 for 1D, Equation 3 for 2D, and the half-integer
// message-count analysis for the grid kinds (internal/costmodel/rows.go
// derivation, re-stated here independently).
func transfer(tp costmodel.TransferParams, kind mdg.TransferKind, bytes int, pi, pj float64) (send, net, recv float64) {
	l := float64(bytes)
	switch kind {
	case mdg.Transfer1D:
		mx := pi
		if pj > mx {
			mx = pj
		}
		send = mx/pi*tp.Tss + l/pi*tp.Tps
		net = l / mx * tp.Tn
		recv = mx/pj*tp.Tsr + l/pj*tp.Tpr
	case mdg.Transfer2D:
		send = pj*tp.Tss + l/pi*tp.Tps
		net = l / (pi * pj) * tp.Tn
		recv = pi*tp.Tsr + l/pj*tp.Tpr
	case mdg.TransferG2L:
		send = math.Max(1, pj/math.Sqrt(pi))*tp.Tss + l/pi*tp.Tps
		net = l / math.Max(pi, pj) * tp.Tn
		recv = math.Max(math.Sqrt(pi), pi/pj)*tp.Tsr + l/pj*tp.Tpr
	case mdg.TransferL2G:
		send = math.Max(math.Sqrt(pj), pj/pi)*tp.Tss + l/pi*tp.Tps
		net = l / math.Max(pi, pj) * tp.Tn
		recv = math.Max(1, pi/math.Sqrt(pj))*tp.Tsr + l/pj*tp.Tpr
	case mdg.TransferG2G:
		mx := math.Max(pi, pj)
		send = mx/pi*tp.Tss + l/pi*tp.Tps
		net = l / mx * tp.Tn
		recv = mx/pj*tp.Tsr + l/pj*tp.Tpr
	}
	return send, net, recv
}

// edgeCosts sums transfer over every array on the edge.
func edgeCosts(tp costmodel.TransferParams, e mdg.Edge, pi, pj float64) (send, net, recv float64) {
	for _, tr := range e.Transfers {
		s, n, r := transfer(tp, tr.Kind, tr.Bytes, pi, pj)
		send += s
		net += n
		recv += r
	}
	return send, net, recv
}

// nodeWeight is T_i of Section 2: receive costs from all predecessors,
// Equation-1 processing, send costs to all successors. It walks g.Edges
// directly instead of the graph's adjacency cache.
func nodeWeight(g *mdg.Graph, tp costmodel.TransferParams, i mdg.NodeID, p []float64) float64 {
	w := processing(g.Nodes[i].Alpha, g.Nodes[i].Tau, p[i])
	for _, e := range g.Edges {
		if e.To == i {
			_, _, r := edgeCosts(tp, e, p[e.From], p[i])
			w += r
		}
		if e.From == i {
			s, _, _ := edgeCosts(tp, e, p[i], p[e.To])
			w += s
		}
	}
	return w
}

// topoDFS returns a topological order by iterative depth-first postorder —
// a different algorithm from mdg's Kahn implementation. Returns nil on a
// cycle.
func topoDFS(g *mdg.Graph) []mdg.NodeID {
	n := g.NumNodes()
	succs := make([][]mdg.NodeID, n)
	for _, e := range g.Edges {
		if int(e.From) < 0 || int(e.From) >= n || int(e.To) < 0 || int(e.To) >= n {
			return nil
		}
		succs[e.From] = append(succs[e.From], e.To)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, n)
	order := make([]mdg.NodeID, 0, n)
	type frame struct {
		v    mdg.NodeID
		next int
	}
	for root := 0; root < n; root++ {
		if color[root] != white {
			continue
		}
		stack := []frame{{v: mdg.NodeID(root)}}
		color[root] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(succs[f.v]) {
				s := succs[f.v][f.next]
				f.next++
				switch color[s] {
				case white:
					color[s] = gray
					stack = append(stack, frame{v: s})
				case gray:
					return nil // back edge: cycle
				}
				continue
			}
			color[f.v] = black
			order = append(order, f.v)
			stack = stack[:len(stack)-1]
		}
	}
	// Postorder is reverse-topological; reverse in place.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// phiEval re-derives Φ = max(A_p, C_p) at allocation p: A_p as the
// processor-time area (1/procs)·Σ T_i·p_i, C_p by longest-path relaxation
// over the DFS topological order. ok is false on a cyclic graph.
func phiEval(g *mdg.Graph, tp costmodel.TransferParams, p []float64, procs int) (phi, ap, cp float64, ok bool) {
	order := topoDFS(g)
	if order == nil {
		return 0, 0, 0, false
	}
	n := g.NumNodes()
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = nodeWeight(g, tp, mdg.NodeID(i), p)
		ap += w[i] * p[i]
	}
	ap /= float64(procs)
	y := make([]float64, n)
	for _, v := range order {
		est := 0.0
		for _, e := range g.Edges {
			if e.To != v {
				continue
			}
			_, net, _ := edgeCosts(tp, e, p[e.From], p[v])
			if t := y[e.From] + net; t > est {
				est = t
			}
		}
		y[v] = est + w[v]
		if y[v] > cp {
			cp = y[v]
		}
	}
	return math.Max(ap, cp), ap, cp, true
}
