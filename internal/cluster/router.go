// Pluggable partition routers: given a job and the free processors, a
// router picks which processors (and, within [Min, Grant], how many)
// form the job's partition. Routers may keep state across decisions —
// the loop constructs one fresh instance per run, so a stateful policy
// still replays deterministically.
package cluster

import (
	"fmt"
	"math"
	"sort"
)

// Router names understood by Options.Router.
const (
	RouterRoundRobin  = "round-robin"
	RouterLeastLoaded = "least-loaded"
	RouterBestFit     = "best-fit"
)

// RouteContext is the information a router decides from.
type RouteContext struct {
	// Free is the assignable processor set, ascending. Grant is the
	// partition size on offer; Min the smallest size the job accepts.
	Free  []int
	Grant int
	Min   int
	// Busy reports a processor's cumulative committed work.
	Busy func(proc int) float64
	// Predict estimates the job's objective Φ at a partition size
	// (NaN/Inf = unknown; nil = unknown everywhere) — the best-fit cost
	// surface.
	Predict func(procs int) float64
}

// Router picks a partition: a subset of rc.Free with len in
// [rc.Min, rc.Grant]. An invalid answer (wrong size, non-free or
// duplicated processors) falls back to the first-free prefix.
type Router interface {
	Name() string
	Route(spec Spec, rc RouteContext) []int
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

func (r *roundRobin) Name() string { return RouterRoundRobin }

func (r *roundRobin) Route(_ Spec, rc RouteContext) []int {
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

func (leastLoaded) Name() string { return RouterLeastLoaded }

func (leastLoaded) Route(_ Spec, rc RouteContext) []int {
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

// bestFit sizes the partition by predicted cost: among candidate sizes
// (the full grant and every power of two in [Min, Grant]) it minimizes
// Φ(k)·k — predicted processor-seconds, the capacity the job takes from
// the pool — breaking ties toward the larger partition (finish sooner
// at equal cost). Unknown predictions fall back to the full grant. Where
// Min = Grant (paradigmd fixes the size before routing) the grant is the
// only candidate: best-fit places the lowest free processors.
type bestFit struct{}

func (bestFit) Name() string { return RouterBestFit }

func (bestFit) Route(_ Spec, rc RouteContext) []int {
	sizes := []int{rc.Grant}
	for k := 1; k < rc.Grant; k *= 2 {
		if k >= rc.Min {
			sizes = append(sizes, k)
		}
	}
	best, bestScore := rc.Grant, math.Inf(1)
	for _, k := range sizes {
		phi := math.NaN()
		if rc.Predict != nil {
			phi = rc.Predict(k)
		}
		if math.IsNaN(phi) || math.IsInf(phi, 0) || phi < 0 {
			continue
		}
		score := phi * float64(k)
		if score < bestScore || (score == bestScore && k > best) {
			best, bestScore = k, score
		}
	}
	return append([]int(nil), rc.Free[:best]...)
}
