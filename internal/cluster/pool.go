// The processor pool core both clocks share: per-processor health, owner
// and cumulative busy time, and the route → validate → fallback → claim
// step that places a job. The virtual-time loop (Run) and cmd/paradigmd's
// wall-clock pool each own one Pool and keep only their own policy
// around it: when a job is granted, how large its grant is, and what a
// fault does. A Pool does no locking: the loop is single-threaded and
// paradigmd guards its Pool with its own mutex.
package cluster

import "sort"

// Processor health states.
const (
	procAlive = iota
	procSuspect
	procDead
)

// Pool is the bookkeeping of one shared processor pool.
type Pool struct {
	router Router
	health []int
	owner  []string // "" = unowned
	busy   []float64
}

// NewPool returns a pool of procs alive, unowned, idle processors placed
// by the named router (Options.Router's names; "" = round-robin). The
// router is constructed fresh, so a stateful policy replays
// deterministically.
func NewPool(procs int, router string) (*Pool, error) {
	r, err := newRouter(router)
	if err != nil {
		return nil, err
	}
	return &Pool{
		router: r,
		health: make([]int, procs),
		owner:  make([]string, procs),
		busy:   make([]float64, procs),
	}, nil
}

// Assignable counts processors not yet declared dead — the capacity the
// pool believes it has (suspect processors included: that is the point
// of detection latency).
func (p *Pool) Assignable() int {
	n := 0
	for _, h := range p.health {
		if h != procDead {
			n++
		}
	}
	return n
}

// Free returns the unowned, not-dead processors in ascending order.
func (p *Pool) Free() []int {
	var out []int
	for q, h := range p.health {
		if h != procDead && p.owner[q] == "" {
			out = append(out, q)
		}
	}
	return out
}

// Place asks the router for a partition of between minP and grant free
// processors, claims it for spec.ID (non-empty) and returns it
// ascending. An answer that is not such a partition (wrong size, a
// processor that is not free, a duplicate) falls back to the first-free
// prefix, so a policy bug degrades placement quality, not correctness.
// predict is best-fit's cost surface (nil: unknown). The caller
// guarantees at least grant free processors.
func (p *Pool) Place(spec Spec, grant, minP int, predict func(procs int) float64) []int {
	free := p.Free()
	procs := p.router.Route(spec, RouteContext{
		Free:    append([]int(nil), free...),
		Grant:   grant,
		Min:     minP,
		Busy:    func(q int) float64 { return p.busy[q] },
		Predict: predict,
	})
	if !validPartition(procs, free, grant, minP) {
		procs = append([]int(nil), free[:grant]...)
	}
	sort.Ints(procs)
	for _, q := range procs {
		p.owner[q] = spec.ID
	}
	return procs
}

func validPartition(procs, free []int, grant, minP int) bool {
	if len(procs) < minP || len(procs) > grant {
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

// Release returns procs to the pool; a dead one stays out of Free.
func (p *Pool) Release(procs []int) {
	for _, q := range procs {
		p.owner[q] = ""
	}
}

// Suspect marks a live processor as failed in fact but not yet
// detected: it stays assignable until Retire.
func (p *Pool) Suspect(q int) {
	if p.health[q] == procAlive {
		p.health[q] = procSuspect
	}
}

// Retire declares processor q dead for good: never assignable again. It
// reports whether q was not dead already.
func (p *Pool) Retire(q int) bool {
	if p.health[q] == procDead {
		return false
	}
	p.health[q] = procDead
	return true
}
