// Pluggable partition routers: given the free processors and the grant
// size, a router picks which processors form the job's partition.
// Routers may keep state across decisions; each Pool constructs its own
// instance, so a stateful policy starts fresh with every pool.
package cluster

import (
	"fmt"
	"sort"
)

// Router names understood by NewPool.
const (
	RouterRoundRobin  = "round-robin"
	RouterLeastLoaded = "least-loaded"
	RouterBestFit     = "best-fit"
)

// RouteContext is the information a router decides from.
type RouteContext struct {
	// Free is the assignable processor set, ascending; Grant the
	// partition size, which the caller fixed before routing.
	Free  []int
	Grant int
	// Busy reports a processor's cumulative committed work.
	Busy func(proc int) float64
}

// Router picks a partition: rc.Grant distinct processors of rc.Free. An
// invalid answer (wrong size, non-free or duplicated processors) falls
// back to the first-free prefix.
type Router interface {
	Route(rc RouteContext) []int
}

// newRouter resolves a routing policy name to a fresh instance.
func newRouter(name string) (Router, error) {
	switch name {
	case "", RouterRoundRobin:
		return &roundRobin{}, nil
	case RouterLeastLoaded:
		return leastLoaded{}, nil
	case RouterBestFit:
		return bestFit{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown router %q (want %s, %s or %s)",
			name, RouterRoundRobin, RouterLeastLoaded, RouterBestFit)
	}
}

// roundRobin rotates its starting point through the free list on each
// placement, spreading partitions across the pool.
type roundRobin struct{ turn int }

func (r *roundRobin) Route(rc RouteContext) []int {
	n := len(rc.Free)
	out := make([]int, 0, rc.Grant)
	start := r.turn % n
	for i := 0; i < n && len(out) < rc.Grant; i++ {
		out = append(out, rc.Free[(start+i)%n])
	}
	r.turn++
	return out
}

// leastLoaded picks the processors with the least cumulative committed
// work (ties broken by index), balancing wear across the pool.
type leastLoaded struct{}

func (leastLoaded) Route(rc RouteContext) []int {
	cand := append([]int(nil), rc.Free...)
	sort.SliceStable(cand, func(a, b int) bool {
		ba, bb := rc.Busy(cand[a]), rc.Busy(cand[b])
		if ba != bb {
			return ba < bb
		}
		return cand[a] < cand[b]
	})
	return cand[:rc.Grant]
}

// bestFit places the lowest free processors: the partition size is
// fixed before routing, so the grant is the only fit.
type bestFit struct{}

func (bestFit) Route(rc RouteContext) []int {
	return append([]int(nil), rc.Free[:rc.Grant]...)
}
