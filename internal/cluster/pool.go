// Package cluster is the processor pool behind paradigmd's cluster
// mode: per-processor liveness, owner and cumulative busy time, and the
// route → validate → fallback → claim step that places a job on a
// partition of a size its caller fixed. The caller keeps the policy
// around it: when a job is granted, how large its grant is, and what a
// fault does. A Pool does no locking: paradigmd guards its Pool with its
// own mutex.
package cluster

import "sort"

// Pool is the bookkeeping of one shared processor pool.
type Pool struct {
	router Router
	dead   []bool
	owner  []string // "" = unowned
	busy   []float64
}

// NewPool returns a pool of procs alive, unowned, idle processors placed
// by the named router ("" = round-robin). The router is constructed
// fresh, so a stateful policy starts from the same state in every pool.
func NewPool(procs int, router string) (*Pool, error) {
	r, err := newRouter(router)
	if err != nil {
		return nil, err
	}
	return &Pool{
		router: r,
		dead:   make([]bool, procs),
		owner:  make([]string, procs),
		busy:   make([]float64, procs),
	}, nil
}

// Alive counts the processors not retired: the capacity the pool has.
func (p *Pool) Alive() int {
	n := 0
	for _, d := range p.dead {
		if !d {
			n++
		}
	}
	return n
}

// Free returns the unowned, alive processors in ascending order.
func (p *Pool) Free() []int {
	var out []int
	for q, d := range p.dead {
		if !d && p.owner[q] == "" {
			out = append(out, q)
		}
	}
	return out
}

// Place asks the router for grant free processors, claims them for id
// (non-empty) and returns them ascending. An answer that is not such a
// partition (wrong size, a processor that is not free, a duplicate)
// falls back to the first-free prefix, so a policy bug degrades
// placement quality, not correctness. The caller guarantees at least
// grant free processors.
func (p *Pool) Place(id string, grant int) []int {
	free := p.Free()
	procs := p.router.Route(RouteContext{
		Free:  append([]int(nil), free...),
		Grant: grant,
		Busy:  func(q int) float64 { return p.busy[q] },
	})
	if !validPartition(procs, free, grant) {
		procs = append([]int(nil), free[:grant]...)
	}
	sort.Ints(procs)
	for _, q := range procs {
		p.owner[q] = id
	}
	return procs
}

func validPartition(procs, free []int, grant int) bool {
	if len(procs) != grant {
		return false
	}
	ok := make(map[int]bool, len(free))
	for _, q := range free {
		ok[q] = true
	}
	seen := make(map[int]bool, len(procs))
	for _, q := range procs {
		if !ok[q] || seen[q] {
			return false
		}
		seen[q] = true
	}
	return true
}

// Charge adds d to the cumulative busy time of each processor in procs,
// the load least-loaded routes by.
func (p *Pool) Charge(procs []int, d float64) {
	for _, q := range procs {
		p.busy[q] += d
	}
}

// Release returns procs to the pool; a retired one stays out of Free.
func (p *Pool) Release(procs []int) {
	for _, q := range procs {
		p.owner[q] = ""
	}
}

// Retire declares processor q dead for good: never assignable again. It
// reports whether q was alive.
func (p *Pool) Retire(q int) bool {
	if p.dead[q] {
		return false
	}
	p.dead[q] = true
	return true
}
