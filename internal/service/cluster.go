package service

import (
	"fmt"
	"sync"

	"paradigm"
	"paradigm/internal/cluster"
)

// minAlivePool is the degradation floor: fault injection stops rather
// than retire the pool below this many live processors.
const minAlivePool = 2

// grant is one placement: the pool processors a job holds, whether the
// grant was shrunk below the request, and which partition-local
// processor (if any) is fated to die mid-run and retire.
type grant struct {
	procs      []int // pool processor ids, ascending
	degraded   bool
	faultLocal int // partition-local index to kill, -1 for none
}

// clusterPool is cluster mode's shared wall-clock processor pool: a
// cluster.Pool — the core the virtual-time simulator in internal/cluster
// runs on — guarded by mu, plus the grant policy, the fault injection and
// the gauges. A job waits on cond for a partition, runs the pipeline on
// exactly the processors it was granted, and releases them on completion.
//
//   - Shrink before reject: when live capacity drops below a job's
//     request, the job is granted min(request, alive) processors and
//     marked degraded rather than refused — an acknowledged job is never
//     lost to pool shrinkage.
//   - Deterministic fault injection (Config.ClusterFaults = N): every Nth
//     placement loses one partition processor mid-run. The pipeline's
//     recovery driver salvages onto the partition's survivors, and the
//     dead processor retires from the pool, so the service degrades the
//     way a real cluster does — until alive <= minAlivePool: degrade,
//     don't collapse.
//
// The pool's health (alive/free/dead gauges) and decisions (placement,
// degraded-grant, injected-fault and retirement counters) are on /metrics.
type clusterPool struct {
	mu   sync.Mutex
	cond *sync.Cond

	pool       *cluster.Pool
	total      int
	faultEvery int

	placements uint64
	reg        *paradigm.Metrics
}

func newClusterPool(cfg Config, reg *paradigm.Metrics) (*clusterPool, error) {
	pool, err := cluster.NewPool(cfg.ClusterProcs, cfg.Router)
	if err != nil {
		return nil, err
	}
	p := &clusterPool{pool: pool, total: cfg.ClusterProcs, faultEvery: cfg.ClusterFaults, reg: reg}
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
