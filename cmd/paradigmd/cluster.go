// Cluster mode: paradigmd runs its accepted jobs on one shared
// wall-clock processor pool instead of conjuring a dedicated machine per
// job. A job waits for a partition, placed by the same cluster.Pool core
// the virtual-time simulator in internal/cluster runs on, runs the
// pipeline on exactly the processors it was granted, and releases them
// on completion. The robustness surface carries over from the simulator:
//
//   - Shrink before reject: when live capacity drops below a job's
//     request, the job is granted min(request, alive) processors and
//     marked degraded rather than refused — an acknowledged job is never
//     lost to pool shrinkage.
//   - Deterministic fault injection (-cluster-faults N): every Nth
//     placement loses one partition processor mid-run. The pipeline's
//     PR 3 recovery driver salvages and re-places onto the partition's
//     survivors, and the dead processor retires from the pool, so the
//     service degrades the way a real cluster does. Injection stops once
//     the pool is nearly exhausted (alive <= minAlivePool) — degrade,
//     don't collapse.
//
// The pool publishes its health as gauges (alive/free/dead) and its
// decisions as counters (placements, degraded grants, injected faults,
// retirements) on /metrics.
package main

import (
	"fmt"
	"sync"

	"paradigm"
	"paradigm/internal/cluster"
)

// minAlivePool is the degradation floor: fault injection stops rather
// than retire the pool below this many live processors.
const minAlivePool = 2

// clusterConfig is the resolved cluster-mode command line.
type clusterConfig struct {
	procs      int    // pool size (0: cluster mode off)
	router     string // partition router name
	faultEvery int    // kill one partition proc every Nth placement (0: none)
}

func (c clusterConfig) enabled() bool { return c.procs > 0 }

// grant is one placement: the pool processors a job holds, whether the
// grant was shrunk below the request, and which partition-local
// processor (if any) is fated to die mid-run and retire.
type grant struct {
	procs      []int // pool processor ids, ascending
	degraded   bool
	faultLocal int // partition-local index to kill, -1 for none
}

// clusterPool is the wall-clock shared pool: a cluster.Pool guarded by
// mu, plus the grant policy, the fault injection and the gauges. acquire
// blocks on cond until a partition is available.
type clusterPool struct {
	mu   sync.Mutex
	cond *sync.Cond

	pool       *cluster.Pool
	total      int
	faultEvery int

	placements uint64
	reg        *paradigm.Metrics
}

func newClusterPool(cfg clusterConfig, reg *paradigm.Metrics) (*clusterPool, error) {
	if cfg.procs < 1 {
		return nil, fmt.Errorf("cluster mode needs a positive -cluster-procs, got %d", cfg.procs)
	}
	if cfg.faultEvery < 0 {
		return nil, fmt.Errorf("-cluster-faults %d: want a non-negative placement period", cfg.faultEvery)
	}
	pool, err := cluster.NewPool(cfg.procs, cfg.router)
	if err != nil {
		return nil, err
	}
	p := &clusterPool{pool: pool, total: cfg.procs, faultEvery: cfg.faultEvery, reg: reg}
	p.cond = sync.NewCond(&p.mu)
	p.publishLocked()
	return p, nil
}

// publishLocked refreshes the pool health gauges; callers hold mu.
func (p *clusterPool) publishLocked() {
	alive := p.pool.Assignable()
	p.reg.Gauge("paradigmd_cluster_pool_alive").Set(float64(alive))
	p.reg.Gauge("paradigmd_cluster_pool_free").Set(float64(len(p.pool.Free())))
	p.reg.Gauge("paradigmd_cluster_pool_dead").Set(float64(p.total - alive))
}

// acquire blocks until the pool can host the job, then places it.
// Shrink-before-reject: when live capacity is below the request the job
// is granted every live processor instead of being refused; only a fully
// dead pool errors. The size is fixed before routing (Min = Grant), so
// the router picks which processors, never how many.
func (p *clusterPool) acquire(spec cluster.Spec) (grant, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		alive := p.pool.Assignable()
		if alive < 1 {
			return grant{}, fmt.Errorf("cluster pool exhausted: all %d processors dead", p.total)
		}
		want := min(spec.Procs, alive)
		if len(p.pool.Free()) >= want {
			procs := p.pool.Place(spec, want, want, nil)
			g := grant{procs: procs, degraded: want < spec.Procs, faultLocal: -1}
			p.placements++
			p.reg.Counter("paradigmd_cluster_placements_total").Inc()
			if g.degraded {
				p.reg.Counter("paradigmd_cluster_degraded_total").Inc()
			}
			// Deterministic fault injection: every Nth placement loses its
			// highest-ranked partition processor — but never a singleton
			// partition (nothing to recover onto) and never below the pool
			// floor (degrade, don't collapse).
			if p.faultEvery > 0 && p.placements%uint64(p.faultEvery) == 0 &&
				len(procs) >= 2 && alive > minAlivePool {
				g.faultLocal = len(procs) - 1
				p.reg.Counter("paradigmd_cluster_faults_injected_total").Inc()
			}
			p.publishLocked()
			return g, nil
		}
		p.cond.Wait()
	}
}

// release returns a grant's processors to the pool, charging each with
// the job's wall-clock seconds. The processor fated to die (faultLocal)
// retires instead of coming free — the pool shrinks exactly when the
// simulated partition did.
func (p *clusterPool) release(g grant, seconds float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pool.Charge(g.procs, seconds)
	p.pool.Release(g.procs)
	if g.faultLocal >= 0 {
		p.pool.Retire(g.procs[g.faultLocal])
		p.reg.Counter("paradigmd_cluster_retired_total").Inc()
	}
	p.publishLocked()
	p.cond.Broadcast()
}
