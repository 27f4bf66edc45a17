// The pipeline-level schedule cache (DESIGN.md §15): WithScheduleCache
// memoizes the whole planning half of the pipeline — the governed convex
// allocation AND the rounded PSA schedule — keyed by the
// relabel-invariant canonical MDG hash, the cost-model fingerprint, the
// solve- and schedule-shaping options, and the processor count. An exact
// hit replays both byte-identically (the downstream codegen and
// simulation stages are deterministic functions of the schedule, so the
// whole Result digest matches a cold solve) without touching the solver
// or the PSA. Like the allocation cache it is exact replay or nothing, so
// cached results remain pure functions of the request.
//
// Precedence against the crash-safety surface: a checkpoint that already
// holds a planning-stage record wins over the cache — resume must replay
// the journaled run, not whatever the cache holds today. On a cache hit
// with a fresh checkpoint attached, the replayed stages are committed to
// the log exactly as a cold solve would commit them, so a later resume
// behaves identically — except that a replay is not what a deferred
// checkpoint (OpenDeferredCheckpoint) creates its file for.

package paradigm

import (
	"context"
	"fmt"
	"strings"

	"paradigm/internal/alloc"
	"paradigm/internal/ckpt"
	"paradigm/internal/mdg"
	"paradigm/internal/obs"
	"paradigm/internal/sched"
	"paradigm/internal/schedcache"
)

// ScheduleCache is the bounded, sharded LRU memoizing full
// allocate→schedule pipeline results. Share one across calls via
// WithScheduleCache; all methods are safe for concurrent use.
type ScheduleCache = schedcache.Cache[schedcache.Entry]

// BackendSchedCache is the pseudo-backend reported (via the AllocDone
// event and Allocation.Backend) when an allocate→schedule pair replays
// from the schedule cache without solving.
const BackendSchedCache = alloc.Backend("sched-cache")

// NewScheduleCache returns an empty schedule cache holding at most
// capacity entries spread over the given number of shards (pass 1 for an
// unsharded cache; each shard holds at least one entry).
func NewScheduleCache(capacity, shards int) *ScheduleCache {
	return schedcache.New(capacity, shards)
}

// WithScheduleCache attaches a pipeline-level schedule cache to the
// call: RunContext and AllocateAndScheduleContext consult it before the
// allocation stage and fill it after the scheduling stage.
func WithScheduleCache(sc *ScheduleCache) Option {
	return func(c *config) { c.schedCache = sc }
}

// scheduleCacheKey derives the exact cache key: the allocation cache's
// solve-shape key (alloc.SolveShapeKey — canonical graph hash, transfer
// fingerprint, every solve-shaping option) followed by the
// schedule-shaping options and the processor count, so any knob that
// could change the stored schedule keys a distinct entry. Sharing the
// function keeps the two caches from drifting apart.
func scheduleCacheKey(hash string, model Model, procs int, ao AllocOptions, so ScheduleOptions) string {
	var b strings.Builder
	b.WriteString(alloc.SolveShapeKey(hash, model, ao))
	fmt.Fprintf(&b, "|pb%d|pol%d", so.PB, so.Policy)
	if so.SkipRounding {
		b.WriteString("|sr")
	}
	fmt.Fprintf(&b, "|p%d", procs)
	return b.String()
}

// entryFromPlan permutes a solved plan into canonical order for storage:
// perm[i] is the canonical rank of original node i.
func entryFromPlan(ar Allocation, s *Schedule, perm []mdg.NodeID) schedcache.Entry {
	e := schedcache.Entry{
		PCanon:     make([]float64, len(ar.P)),
		Phi:        ar.Phi,
		Ap:         ar.Ap,
		Cp:         ar.Cp,
		AllocCanon: make([]int, len(s.Alloc)),
		Nodes:      make([]schedcache.NodeSched, len(s.Entries)),
		ProcsTotal: s.ProcsTotal,
		PB:         s.PB,
		Makespan:   s.Makespan,
		Policy:     uint8(s.Policy),
	}
	for i, rank := range perm {
		e.PCanon[rank] = ar.P[i]
		e.AllocCanon[rank] = s.Alloc[i]
		ent := s.Entries[i]
		e.Nodes[rank] = schedcache.NodeSched{Start: ent.Start, Finish: ent.Finish, Procs: ent.Procs}
	}
	return e
}

// planFromEntry replays a cached plan into the querying graph's node
// order. Solver diagnostics are zero — nothing was solved.
func planFromEntry(e schedcache.Entry, perm []mdg.NodeID) (Allocation, *Schedule) {
	n := len(perm)
	ar := Allocation{
		P: make([]float64, n), Phi: e.Phi, Ap: e.Ap, Cp: e.Cp,
		Backend: BackendSchedCache, CacheOutcome: "hit",
	}
	s := &Schedule{
		ProcsTotal: e.ProcsTotal,
		PB:         e.PB,
		Alloc:      make([]int, n),
		Entries:    make([]sched.Entry, n),
		Makespan:   e.Makespan,
		Policy:     sched.Policy(e.Policy),
	}
	for i, rank := range perm {
		ar.P[i] = e.PCanon[rank]
		s.Alloc[i] = e.AllocCanon[rank]
		ns := e.Nodes[rank]
		s.Entries[i] = sched.Entry{Node: mdg.NodeID(i), Start: ns.Start, Finish: ns.Finish, Procs: ns.Procs}
	}
	return ar, s
}

// planCkptResume reports whether the attached checkpoint already holds a
// planning-stage record; the cache must then stand aside and let the
// normal stages resume from the log.
func (c *config) planCkptResume() bool {
	if !c.ckptActive() {
		return false
	}
	if _, _, ok := c.ckpt.log.Lookup(ckpt.StageAlloc); ok {
		return true
	}
	_, _, ok := c.ckpt.log.Lookup(ckpt.StageSched)
	return ok
}

// planStages is the cached planning half of the pipeline shared by
// RunContext and AllocateAndScheduleContext: schedule-cache lookup, the
// governed allocation and PSA stages on a miss, cache fill on success.
func (c *config) planStages(ctx context.Context, g *Graph, model Model, procs int) (Allocation, *Schedule, error) {
	if c.schedCache == nil || c.planCkptResume() {
		return c.planSolve(ctx, g, model, procs, nil, "")
	}
	hash, perm, err := g.CanonicalHash()
	if err != nil {
		// An uncanonicalizable graph fails validation inside the solver
		// with a properly typed error; run the stages uncached.
		return c.planSolve(ctx, g, model, procs, nil, "")
	}
	key := scheduleCacheKey(hash, model, procs, c.alloc, c.sched)
	if e, ok := c.schedCache.Get(key); ok && len(e.PCanon) == len(perm) {
		c.emit(obs.SchedCache{Outcome: "hit"})
		ar, s := planFromEntry(e, perm)
		// The replay bypasses SolveCtx, so report the completed
		// allocation here under the pseudo-backend — latency observers
		// and the solve counters keep working.
		c.emit(obs.AllocDone{Backend: string(BackendSchedCache), Phi: ar.Phi})
		// Commit the replayed stages exactly as a cold solve would, so a
		// crash after this point resumes from the WAL as usual (a deferred
		// checkpoint only remembers them: planFromEntry labels the
		// allocation a replay).
		if _, cerr := c.allocCommit(ar, nil); cerr != nil {
			return Allocation{}, nil, cerr
		}
		if cerr := c.schedCommit(s); cerr != nil {
			return Allocation{}, nil, cerr
		}
		return ar, s, nil
	}
	c.emit(obs.SchedCache{Outcome: "miss"})
	return c.planSolve(ctx, g, model, procs, perm, key)
}

// planSolve runs the governed allocation and PSA stages, filling the
// schedule cache when a key was derived. Breaker-degraded heuristic
// allocations are never cached: they depend on shared breaker state, not
// just the request, and a later identical request with a healthy solver
// must not replay them.
func (c *config) planSolve(ctx context.Context, g *Graph, model Model, procs int, perm []mdg.NodeID, key string) (Allocation, *Schedule, error) {
	ar, err := c.allocStage(ctx, g, model, procs)
	if err != nil {
		return Allocation{}, nil, err
	}
	s, err := c.schedStage(ctx, g, model, ar.P, procs)
	if err != nil {
		return Allocation{}, nil, err
	}
	if key != "" && ar.Backend != alloc.BackendHeuristic {
		c.schedCache.Put(key, entryFromPlan(ar, s, perm))
	}
	return ar, s, nil
}

// AllocateAndScheduleContext runs the planning half of the pipeline —
// the governed convex allocation followed by the PSA — as one cached
// unit: with a WithScheduleCache cache attached, an exact hit replays
// both stages byte-identically without solving, and a miss fills the
// cache for the next identical request. Without a cache it is equivalent
// to AllocateContext followed by BuildScheduleContext. The full
// governance surface of both stages applies (budgets, retry, breaker,
// checkpoint precedence).
func AllocateAndScheduleContext(ctx context.Context, g *Graph, model Model, procs int, opts ...Option) (ar Allocation, s *Schedule, err error) {
	defer guardStage("plan", &err)
	c := newConfig(opts)
	return c.planStages(ctx, g, model, procs)
}
