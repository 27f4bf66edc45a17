// Cluster-mode service tests: a wave of jobs runs on a paradigmd whose
// jobs share one wall-clock processor pool, with deterministic partition
// deaths injected every Nth placement. The gates: every acknowledged job
// reaches a terminal state with zero losses while processors die and
// retire mid-stream, the pool's health and decisions are visible on
// /metrics, and a request larger than the surviving pool is shrunk to
// the live capacity (degraded) rather than refused.
package service

import (
	"strings"
	"testing"
	"time"

	"paradigm"
)

// TestServiceClusterFaults is the service face of the cluster chaos
// gate: the twelve-job wave against a cluster-mode server with a
// partition death on every 3rd placement. Twelve placements retire four
// processors; every acknowledged job must still finish (the pipeline
// recovers each faulted run onto the partition's survivors), and an
// oversized follow-up request must be granted the shrunken pool's full
// live capacity — degraded, not refused.
func TestServiceClusterFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster waves skipped in -short")
	}
	srv, hs := testServer(t, Config{QueueCap: 512, Policy: twoTenants, ClusterProcs: 12, ClusterFaults: 3}, 3)
	defer srv.Drain()

	// runWave fails the test if any acknowledged job is lost or finishes
	// failed, which is the zero-jobs-lost bar.
	runWave(t, hs.URL, wave)

	// Deterministic damage: 12 placements, a death every 3rd, none
	// blocked by the pool floor — exactly 4 processors retired.
	metrics := scrapeMetrics(t, hs.URL)
	for _, want := range []string{
		"paradigmd_cluster_placements_total 12",
		"paradigmd_cluster_faults_injected_total 4",
		"paradigmd_cluster_retired_total 4",
		"paradigmd_cluster_pool_alive 8",
		"paradigmd_cluster_pool_dead 4",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Shrink before reject: 16 processors requested, 8 alive — the job
	// runs degraded on all 8 survivors instead of being refused.
	view := runWave(t, hs.URL, []string{`{"program":"cmm","size":16,"procs":16}`}).views[0]
	if view.Granted != 8 || !view.Degraded {
		t.Fatalf("oversized job granted %d (degraded %t), want 8 degraded on the shrunken pool",
			view.Granted, view.Degraded)
	}
	if !strings.Contains(scrapeMetrics(t, hs.URL), "paradigmd_cluster_degraded_total 1") {
		t.Fatal("degraded grant not counted on /metrics")
	}
}

// TestServiceClusterCoalescingDisabled pins that cluster mode turns off
// submit coalescing: a placement-dependent outcome (granted size, fault
// injection) makes identical specs non-interchangeable, so concurrent
// identical submits must each run.
func TestServiceClusterCoalescingDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster waves skipped in -short")
	}
	srv, hs := testServer(t, Config{QueueCap: 512, Policy: twoTenants, ClusterProcs: 12}, 3)
	defer srv.Drain()
	const spec = `{"program":"cmm","size":16,"procs":4,"tenant":"a"}`
	for _, v := range runWave(t, hs.URL, []string{spec, spec, spec}).views {
		if v.Coalesced {
			t.Fatal("identical submits coalesced in cluster mode")
		}
	}
	if strings.Contains(scrapeMetrics(t, hs.URL), "paradigmd_jobs_coalesced_total") {
		t.Fatal("coalescing counter moved in cluster mode")
	}
}

// TestClusterPoolRules drives clusterPool directly, without HTTP: the
// singleton rule, the pool floor, shrink-before-reject, blocking for
// capacity, and retirement — checking the health gauges after every step.
func TestClusterPoolRules(t *testing.T) {
	reg := paradigm.NewMetrics()
	p := newClusterPool(Config{ClusterProcs: 4, ClusterFaults: 1}, reg)

	// check holds the gauges to the expected counts and to the pool's
	// invariants: free = alive - held >= 0 and alive + dead = total.
	check := func(step string, alive, held int) {
		t.Helper()
		a := reg.Gauge("paradigmd_cluster_pool_alive").Value()
		f := reg.Gauge("paradigmd_cluster_pool_free").Value()
		d := reg.Gauge("paradigmd_cluster_pool_dead").Value()
		if a != float64(alive) || f != float64(alive-held) {
			t.Fatalf("%s: alive %v free %v, want alive %d free %d", step, a, f, alive, alive-held)
		}
		if f < 0 || a+d != 4 {
			t.Fatalf("%s: free %v, alive %v + dead %v: want free >= 0 and alive + dead = 4", step, f, a, d)
		}
	}
	acquire := func(step string, request, procs int, degraded bool, faultLocal int) grant {
		t.Helper()
		g, err := p.acquire(request)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if g.procs != procs || g.degraded != degraded || g.faultLocal != faultLocal {
			t.Fatalf("%s: granted %+v, want procs %d degraded %t faultLocal %d",
				step, g, procs, degraded, faultLocal)
		}
		return g
	}
	check("new", 4, 0)

	// Every placement is a fault placement here, but a singleton partition
	// has no survivor to recover onto: no fault on a 1-processor grant.
	one := acquire("singleton", 1, 1, false, -1)
	check("singleton held", 4, 1)
	p.release(one)
	check("singleton released", 4, 0)

	// A 3-processor grant loses its highest local index, which retires
	// on release instead of coming free.
	three := acquire("fault", 3, 3, false, 2)
	check("fault held", 4, 3)
	p.release(three)
	check("fault released", 3, 0)

	// An acquire blocked for capacity wakes when a release frees it.
	two := acquire("hold", 2, 2, false, 1)
	check("hold", 3, 2)
	woke := make(chan grant)
	go func() {
		g, err := p.acquire(2)
		if err != nil {
			t.Error(err)
		}
		woke <- g
	}()
	select {
	case g := <-woke:
		t.Fatalf("acquire of 2 with 1 free returned %+v instead of blocking", g)
	case <-time.After(50 * time.Millisecond):
	}
	p.release(two)
	var waited grant
	select {
	case waited = <-woke:
	case <-time.After(10 * time.Second):
		t.Fatal("blocked acquire did not wake on release")
	}
	// 2 alive: the floor stops fault injection from retiring further.
	if waited.procs != 2 || waited.degraded || waited.faultLocal != -1 {
		t.Fatalf("woken acquire granted %+v, want 2 processors, no fault at the floor", waited)
	}
	check("woken", 2, 2)
	p.release(waited)
	check("woken released", 2, 0)

	// Shrink before reject: a request above alive is granted exactly
	// alive, marked degraded; still no fault at the floor.
	big := acquire("oversized", 5, 2, true, -1)
	check("oversized held", 2, 2)
	p.release(big)
	check("oversized released", 2, 0)

	for name, want := range map[string]uint64{
		"paradigmd_cluster_placements_total":      5,
		"paradigmd_cluster_faults_injected_total": 2,
		"paradigmd_cluster_retired_total":         2,
		"paradigmd_cluster_degraded_total":        1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
