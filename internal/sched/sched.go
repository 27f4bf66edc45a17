// Package sched implements the Prioritized Scheduling Algorithm (PSA) of
// Section 3.
//
// The pipeline is exactly the paper's:
//
//  1. Rounding-off step: the continuous allocation from the convex
//     program is rounded to the arithmetic-nearest power of two (changing
//     each p_i by a factor within [2/3, 4/3] — the Theorem 2 constants).
//     A node within roundBand of a rounding boundary may go either way
//     under the same constants; Run schedules both and keeps the shorter
//     schedule, so the result does not hinge on the solver's last digits.
//  2. Bounding step: allocations are clamped to a power-of-two bound PB,
//     chosen by Corollary 1 unless overridden.
//  3. Node and edge weights are recomputed under the new allocation.
//  4. List scheduling with implicit prioritization: repeatedly pick the
//     ready node with the lowest Earliest Start Time (EST), compute the
//     Processor Satisfaction Time (PST) at which its processor request
//     can be met, and schedule it at max(EST, PST).
//  5. Terminate when STOP is scheduled; its finish time is T_psa.
//
// Concrete processors are assigned as contiguous aligned power-of-two
// blocks (buddy allocation, matching how space-shared multicomputers were
// partitioned) when the system size is a power of two, and by
// earliest-available selection otherwise.
package sched

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"

	"paradigm/internal/bounds"
	"paradigm/internal/costmodel"
	"paradigm/internal/errs"
	"paradigm/internal/mdg"
	"paradigm/internal/obs"
)

// Policy selects the ready-queue discipline.
type Policy uint8

const (
	// LowestEST is the paper's PSA: pick the ready node with the lowest
	// earliest start time.
	LowestEST Policy = iota
	// FIFO is the plain list-scheduling ablation: pick ready nodes in
	// arrival order.
	FIFO
	// HLF (highest level first) prioritizes the ready node with the
	// longest weighted path to the end of the graph — the classic
	// critical-path list-scheduling priority, for ablation A4.
	HLF
)

// String renders the policy name.
func (p Policy) String() string {
	switch p {
	case LowestEST:
		return "PSA(lowest-EST)"
	case FIFO:
		return "FIFO"
	case HLF:
		return "HLF(critical-path)"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Options tunes Run.
type Options struct {
	// PB overrides the processor bound; 0 selects Corollary 1's optimum.
	PB int
	// SkipRounding keeps the continuous allocation's floor instead of
	// power-of-two rounding (ablation A1). The bound is still applied.
	SkipRounding bool
	// Policy selects the ready-queue discipline (default LowestEST).
	Policy Policy
	// Observer, when non-nil, receives one obs.PSARound event per node
	// (the rounding/bounding decision) and one obs.PSAPick event per
	// list-scheduling pick. Nil costs one pointer comparison per event.
	Observer obs.Observer
}

// Entry is one scheduled node.
type Entry struct {
	Node   mdg.NodeID
	Start  float64
	Finish float64
	// Procs are the concrete processor ids running the node, ascending.
	Procs []int
}

// Schedule is the PSA output.
type Schedule struct {
	ProcsTotal int
	PB         int
	// Alloc is the rounded-and-bounded per-node allocation.
	Alloc []int
	// Entries are indexed by NodeID.
	Entries []Entry
	// Makespan is T_psa: the finish time of the last node (= STOP).
	Makespan float64
	// Policy that produced the schedule.
	Policy Policy
}

// RoundAndBound applies the rounding-off and bounding steps to a
// continuous allocation. pb must be a positive power of two <= procs.
// A non-nil observer receives one obs.PSARound event per node.
func RoundAndBound(cont []float64, procs, pb int, skipRounding bool, o obs.Observer) ([]int, error) {
	if pb < 1 || pb > procs || !bounds.IsPow2(pb) {
		return nil, fmt.Errorf("sched: %w: PB = %d must be a power of two in [1, %d]", errs.ErrInfeasible, pb, procs)
	}
	out := make([]int, len(cont))
	for i, p := range cont {
		if skipRounding {
			out[i] = min(flooredAlloc(p), pb)
		} else {
			out[i] = bounds.RoundPow2(p, pb)
		}
	}
	observeRounding(o, cont, out, pb, skipRounding)
	return out, nil
}

// flooredAlloc is the SkipRounding ablation's "rounding": the floor, at
// least one processor.
func flooredAlloc(p float64) int {
	return max(1, int(math.Floor(p)))
}

// observeRounding reports the rounding and bounding decisions behind
// alloc, one obs.PSARound per node: the unbounded rounding is the plain
// one unless alloc shows the node was rounded across its boundary.
func observeRounding(o obs.Observer, cont []float64, alloc []int, pb int, skipRounding bool) {
	if o == nil {
		return
	}
	for i, p := range cont {
		unbounded := flooredAlloc(p)
		if !skipRounding {
			if unbounded = bounds.RoundPow2(p, 0); alloc[i] != min(unbounded, pb) {
				unbounded, _ = acrossBoundary(p)
			}
		}
		o.Observe(obs.PSARound{
			Node: i, Continuous: p,
			Rounded: unbounded, Final: alloc[i],
			Clipped: alloc[i] < unbounded,
		})
	}
}

// Run executes the full PSA pipeline: round, bound, recompute weights,
// schedule — over both roundings of every node within roundBand of a
// rounding boundary (bestRounding), keeping the least T_psa. cont is the
// continuous allocation from the convex program (indexed by NodeID).
func Run(g *mdg.Graph, model costmodel.Model, cont []float64, procs int, opts Options) (*Schedule, error) {
	return RunCtx(context.Background(), g, model, cont, procs, opts)
}

// RunCtx is Run with cancellation: ctx is checked on every
// list-scheduling pick, mirroring the allocator's per-iteration checks.
func RunCtx(ctx context.Context, g *mdg.Graph, model costmodel.Model, cont []float64, procs int, opts Options) (*Schedule, error) {
	if procs < 1 {
		return nil, fmt.Errorf("sched: %w: procs = %d, want >= 1", errs.ErrInfeasible, procs)
	}
	if len(cont) != g.NumNodes() {
		return nil, fmt.Errorf("sched: %w: allocation has %d entries for %d nodes", errs.ErrInfeasible, len(cont), g.NumNodes())
	}
	pb := opts.PB
	if pb == 0 {
		var err error
		pb, _, err = bounds.OptimalPB(procs)
		if err != nil {
			return nil, err
		}
	}
	alloc, err := RoundAndBound(cont, procs, pb, opts.SkipRounding, nil)
	if err != nil {
		return nil, err
	}
	var s *Schedule
	if flips := ambiguousRoundings(cont, alloc, pb, opts.SkipRounding); len(flips) > 0 {
		if s, err = bestRounding(ctx, g, model, alloc, flips, procs, opts.Policy); err != nil {
			return nil, err
		}
		alloc = s.Alloc
	}
	observeRounding(opts.Observer, cont, alloc, pb, opts.SkipRounding)
	if s == nil || opts.Observer != nil {
		// The search above runs unobserved; the schedule that is kept is
		// run (again) for the observer's PSAPick events.
		if s, err = psa(ctx, g, model, alloc, procs, opts.Policy, opts.Observer); err != nil {
			return nil, err
		}
	}
	s.PB = pb
	return s, nil
}

// roundBand is the relative half-width of the band around a rounding
// boundary 1.5·2^k inside which PSA, not the boundary, decides which way a
// node rounds. Theorem 2's (3/2)² bounds the cost of rounding either way,
// so near a boundary both roundings are equally licensed; which side of it
// the convex program's answer falls on is decided by the solver's last
// digits (cmm 56 at p = 23 puts two nodes at a continuous 6.0028 or 5.989
// depending on how exactly it is solved), and a step function evaluated
// there turns a better optimum into a worse schedule. Set from the margin
// histogram of the benchmark's 300 cold specs (DESIGN.md §4): 13 come within
// 0.1 % of a boundary, 8 more within 0.5 %; it is not a knob.
const roundBand = 0.005

// roundExhaustive is the number of in-band nodes up to which every
// combination of roundings is scheduled (at most 16 PSA runs of tens of
// microseconds each). It is not optional: CMM's nodes come in bit-equal
// pairs and quads whose members must flip together, which a one-node-at-
// a-time search cannot see.
const roundExhaustive = 4

// flip is one in-band node and the allocation it gets when rounded across
// its boundary (after bounding).
type flip struct{ node, alt int }

// acrossBoundary returns the power of two on the far side of the rounding
// boundary 1.5·2^k nearest p from the one RoundPow2 picks, and whether p
// lies within roundBand of that boundary.
func acrossBoundary(p float64) (alt int, inBand bool) {
	lower := 1
	for float64(2*lower) <= p {
		lower *= 2
	}
	b := 1.5 * float64(lower)
	if !(math.Abs(p-b) <= roundBand*b) {
		return 0, false
	}
	if p > b {
		return lower, true
	}
	return 2 * lower, true
}

// ambiguousRoundings lists the nodes whose continuous allocation lies in
// the band and whose other rounding still differs after bounding by pb.
func ambiguousRoundings(cont []float64, alloc []int, pb int, skipRounding bool) []flip {
	if skipRounding {
		return nil
	}
	var flips []flip
	for i, p := range cont {
		if alt, ok := acrossBoundary(p); ok && min(alt, pb) != alloc[i] {
			flips = append(flips, flip{i, min(alt, pb)})
		}
	}
	return flips
}

// bestRounding schedules alternatives to alloc (the plain rounding) over
// the in-band nodes and returns the schedule with the least T_psa, ties to
// the plain rounding: every combination up to roundExhaustive nodes,
// beyond that a greedy descent flipping, per round, the one node that
// lowers T_psa most, until none does.
func bestRounding(ctx context.Context, g *mdg.Graph, model costmodel.Model, alloc []int, flips []flip, procs int, policy Policy) (*Schedule, error) {
	run := func(flipped func(k int) bool) (*Schedule, error) {
		a := append([]int(nil), alloc...)
		for k, f := range flips {
			if flipped(k) {
				a[f.node] = f.alt
			}
		}
		return psa(ctx, g, model, a, procs, policy, nil)
	}
	best, err := run(func(int) bool { return false })
	if err != nil {
		return nil, err
	}
	if len(flips) <= roundExhaustive {
		for mask := 1; mask < 1<<len(flips); mask++ {
			s, err := run(func(k int) bool { return mask>>k&1 == 1 })
			if err != nil {
				return nil, err
			}
			if s.Makespan < best.Makespan {
				best = s
			}
		}
		return best, nil
	}
	on := make([]bool, len(flips))
	for {
		pick := -1
		for k := range flips {
			if on[k] {
				continue
			}
			s, err := run(func(j int) bool { return on[j] || j == k })
			if err != nil {
				return nil, err
			}
			if s.Makespan < best.Makespan {
				best, pick = s, k
			}
		}
		if pick < 0 {
			return best, nil
		}
		on[pick] = true
	}
}

// readyItem is a ready-queue element.
type readyItem struct {
	node  mdg.NodeID
	est   float64
	seq   int     // FIFO arrival sequence
	level float64 // weighted bottom level (HLF)
}

// readyQueue orders by (EST, node id) under LowestEST, by arrival under
// FIFO, and by descending bottom level under HLF.
type readyQueue struct {
	items  []readyItem
	policy Policy
}

func (q *readyQueue) Len() int { return len(q.items) }
func (q *readyQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	switch q.policy {
	case FIFO:
		return a.seq < b.seq
	case HLF:
		if a.level != b.level {
			return a.level > b.level
		}
		if a.est != b.est {
			return a.est < b.est
		}
		return a.node < b.node
	}
	if a.est != b.est {
		return a.est < b.est
	}
	return a.node < b.node
}
func (q *readyQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *readyQueue) Push(x interface{}) { q.items = append(q.items, x.(readyItem)) }
func (q *readyQueue) Pop() interface{} {
	old := q.items
	n := len(old)
	it := old[n-1]
	q.items = old[:n-1]
	return it
}

// PSA schedules g under an integer allocation (one entry per node, each in
// [1, procs]) onto procs processors. The graph must have unique START and
// STOP nodes (use mdg.EnsureStartStop).
func PSA(g *mdg.Graph, model costmodel.Model, alloc []int, procs int, policy Policy) (*Schedule, error) {
	return psa(context.Background(), g, model, alloc, procs, policy, nil)
}

// psa is the list scheduler behind PSA and Run; a non-nil observer
// receives one obs.PSAPick event per scheduling decision.
func psa(ctx context.Context, g *mdg.Graph, model costmodel.Model, alloc []int, procs int, policy Policy, o obs.Observer) (*Schedule, error) {
	n := g.NumNodes()
	if n == 0 {
		// An empty MDG used to surface mdg.StartStop's unwrapped error;
		// callers dispatching with errors.Is need the sentinel.
		return nil, fmt.Errorf("sched: %w: empty MDG", errs.ErrBadGraph)
	}
	if len(alloc) != n {
		return nil, fmt.Errorf("sched: %w: allocation has %d entries for %d nodes", errs.ErrInfeasible, len(alloc), n)
	}
	for i, a := range alloc {
		if a < 1 || a > procs {
			return nil, fmt.Errorf("sched: %w: node %d allocation %d outside [1, %d]", errs.ErrInfeasible, i, a, procs)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	start, stop, err := g.StartStop()
	if err != nil {
		return nil, err
	}

	// Recompute weights under the integer allocation (PSA step 3).
	pf := make([]float64, n)
	for i, a := range alloc {
		pf[i] = float64(a)
	}
	weight := make([]float64, n)
	for i := 0; i < n; i++ {
		weight[i] = model.NodeWeight(g, mdg.NodeID(i), pf)
	}

	freeAt := make([]float64, procs)
	entries := make([]Entry, n)
	scheduled := make([]bool, n)
	predsLeft := make([]int, n)
	for i := 0; i < n; i++ {
		predsLeft[i] = len(g.Preds(mdg.NodeID(i)))
	}

	// Bottom levels for the HLF priority: longest weighted path (node
	// weights plus edge delays) from each node to the end of the graph.
	level := make([]float64, n)
	if policy == HLF {
		order, err := g.TopoOrder()
		if err != nil {
			return nil, err
		}
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			best := 0.0
			for _, s := range g.Succs(v) {
				e, _ := g.EdgeBetween(v, s)
				if t := model.EdgeDelay(g, e, pf) + level[s]; t > best {
					best = t
				}
			}
			level[v] = best + weight[v]
		}
	}

	rq := &readyQueue{policy: policy}
	heap.Init(rq)
	seq := 0
	push := func(node mdg.NodeID, est float64) {
		heap.Push(rq, readyItem{node: node, est: est, seq: seq, level: level[node]})
		seq++
	}
	push(start, 0)

	buddy := bounds.IsPow2(procs)
	makespan := 0.0
	for rq.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		it := heap.Pop(rq).(readyItem)
		node := it.node
		if scheduled[node] {
			return nil, fmt.Errorf("sched: node %d scheduled twice", node)
		}
		q := alloc[node]
		var procSet []int
		var pst float64
		if buddy && bounds.IsPow2(q) {
			procSet, pst = pickBuddyBlock(freeAt, q, it.est)
		} else {
			procSet, pst = pickEarliestFree(freeAt, q)
		}
		startT := math.Max(it.est, pst)
		finishT := startT + weight[node]
		for _, p := range procSet {
			freeAt[p] = finishT
		}
		if o != nil {
			o.Observe(obs.PSAPick{
				Node: int(node), EST: it.est, PST: pst,
				Start: startT, Finish: finishT, Procs: len(procSet),
			})
		}
		entries[node] = Entry{Node: node, Start: startT, Finish: finishT, Procs: procSet}
		scheduled[node] = true
		if finishT > makespan {
			makespan = finishT
		}
		if node == stop {
			break
		}
		// Release successors whose precedence constraints are now met.
		for _, s := range g.Succs(node) {
			predsLeft[s]--
			if predsLeft[s] == 0 {
				est := 0.0
				for _, m := range g.Preds(s) {
					e, _ := g.EdgeBetween(m, s)
					if t := entries[m].Finish + model.EdgeDelay(g, e, pf); t > est {
						est = t
					}
				}
				push(s, est)
			}
		}
	}
	if !scheduled[stop] {
		return nil, fmt.Errorf("sched: STOP node %d never became ready (disconnected graph?)", stop)
	}

	return &Schedule{
		ProcsTotal: procs,
		Alloc:      alloc,
		Entries:    entries,
		Makespan:   entries[stop].Finish,
		Policy:     policy,
	}, nil
}

// pickEarliestFree selects the q processors with the smallest freeAt
// (ties by id); the PST is the largest freeAt among them.
func pickEarliestFree(freeAt []float64, q int) ([]int, float64) {
	ids := make([]int, len(freeAt))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return freeAt[ids[a]] < freeAt[ids[b]] })
	sel := append([]int(nil), ids[:q]...)
	sort.Ints(sel)
	pst := 0.0
	for _, p := range sel {
		if freeAt[p] > pst {
			pst = freeAt[p]
		}
	}
	return sel, pst
}

// pickBuddyBlock selects an aligned contiguous block of q processors
// (q a power of two dividing len(freeAt)) minimizing the node's start time
// max(est, block PST), breaking ties toward the lowest block index.
func pickBuddyBlock(freeAt []float64, q int, est float64) ([]int, float64) {
	p := len(freeAt)
	bestStart := math.Inf(1)
	bestPST := 0.0
	bestBase := -1
	for base := 0; base+q <= p; base += q {
		pst := 0.0
		for i := base; i < base+q; i++ {
			if freeAt[i] > pst {
				pst = freeAt[i]
			}
		}
		start := math.Max(est, pst)
		if start < bestStart {
			bestStart, bestPST, bestBase = start, pst, base
		}
	}
	sel := make([]int, q)
	for i := range sel {
		sel[i] = bestBase + i
	}
	return sel, bestPST
}

// SPMD builds the pure data-parallel baseline schedule: every node runs on
// all processors, one after another in deterministic topological order,
// with weights evaluated at p_i = procs. This is the "naive scheme" of the
// paper's Section 1.2 example and the SPMD arm of Figure 8.
func SPMD(g *mdg.Graph, model costmodel.Model, procs int) (*Schedule, error) {
	if procs < 1 {
		return nil, fmt.Errorf("sched: %w: procs = %d, want >= 1", errs.ErrInfeasible, procs)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("sched: %w: empty MDG", errs.ErrBadGraph)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	pf := make([]float64, n)
	alloc := make([]int, n)
	for i := range pf {
		pf[i] = float64(procs)
		alloc[i] = procs
	}
	all := make([]int, procs)
	for i := range all {
		all[i] = i
	}
	entries := make([]Entry, n)
	now := 0.0
	for _, v := range order {
		// Even back-to-back SPMD execution must respect edge delays.
		est := now
		for _, m := range g.Preds(v) {
			e, _ := g.EdgeBetween(m, v)
			if t := entries[m].Finish + model.EdgeDelay(g, e, pf); t > est {
				est = t
			}
		}
		w := model.NodeWeight(g, v, pf)
		entries[v] = Entry{Node: v, Start: est, Finish: est + w, Procs: all}
		now = entries[v].Finish
	}
	return &Schedule{
		ProcsTotal: procs,
		PB:         procs,
		Alloc:      alloc,
		Entries:    entries,
		Makespan:   now,
		Policy:     LowestEST,
	}, nil
}

// Validate checks schedule invariants against the graph and model:
// no processor runs two nodes at once, every precedence (plus edge delay)
// is respected, durations match recomputed node weights, and processor
// sets have the allocated size.
func (s *Schedule) Validate(g *mdg.Graph, model costmodel.Model) error {
	n := g.NumNodes()
	if len(s.Entries) != n || len(s.Alloc) != n {
		return fmt.Errorf("sched: schedule covers %d/%d nodes", len(s.Entries), n)
	}
	pf := make([]float64, n)
	for i, a := range s.Alloc {
		pf[i] = float64(a)
	}
	type iv struct {
		lo, hi float64
		node   mdg.NodeID
	}
	perProc := make([][]iv, s.ProcsTotal)
	const eps = 1e-9
	for i, e := range s.Entries {
		if e.Start < -eps || e.Finish < e.Start-eps {
			return fmt.Errorf("sched: node %d has invalid interval [%v, %v]", i, e.Start, e.Finish)
		}
		if len(e.Procs) != s.Alloc[i] {
			return fmt.Errorf("sched: node %d uses %d processors, allocated %d", i, len(e.Procs), s.Alloc[i])
		}
		seen := map[int]bool{}
		for _, p := range e.Procs {
			if p < 0 || p >= s.ProcsTotal {
				return fmt.Errorf("sched: node %d uses processor %d outside [0,%d)", i, p, s.ProcsTotal)
			}
			if seen[p] {
				return fmt.Errorf("sched: node %d lists processor %d twice", i, p)
			}
			seen[p] = true
			perProc[p] = append(perProc[p], iv{e.Start, e.Finish, mdg.NodeID(i)})
		}
		w := model.NodeWeight(g, mdg.NodeID(i), pf)
		if math.Abs((e.Finish-e.Start)-w) > eps*math.Max(1, w) {
			return fmt.Errorf("sched: node %d duration %v != weight %v", i, e.Finish-e.Start, w)
		}
	}
	for p, ivs := range perProc {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		// Flag only positive-measure overlap: zero-duration dummy nodes
		// (START/STOP) legitimately share instants with real work.
		maxHi := math.Inf(-1)
		var maxNode mdg.NodeID
		for _, v := range ivs {
			if math.Min(maxHi, v.hi)-v.lo > eps {
				return fmt.Errorf("sched: processor %d overlaps nodes %d and %d", p, maxNode, v.node)
			}
			if v.hi > maxHi {
				maxHi, maxNode = v.hi, v.node
			}
		}
	}
	for _, e := range g.Edges {
		from, to := s.Entries[e.From], s.Entries[e.To]
		delay := model.EdgeDelay(g, e, pf)
		if to.Start < from.Finish+delay-eps {
			return fmt.Errorf("sched: edge %d->%d violated: start %v < finish %v + delay %v",
				e.From, e.To, to.Start, from.Finish, delay)
		}
	}
	return nil
}

// Utilization returns the fraction of the processor-time area
// procs×makespan occupied by node execution.
func (s *Schedule) Utilization() float64 {
	if s.Makespan <= 0 {
		return 0
	}
	busy := 0.0
	for _, e := range s.Entries {
		busy += (e.Finish - e.Start) * float64(len(e.Procs))
	}
	return busy / (s.Makespan * float64(s.ProcsTotal))
}
