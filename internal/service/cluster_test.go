// Cluster-mode service tests and the PR 10 load benchmarks: the seeded
// loadgen arrival wave drives a paradigmd whose jobs share one
// wall-clock processor pool, with deterministic partition deaths
// injected every Nth placement. The gates: every acknowledged job
// reaches a terminal state with zero losses while processors die and
// retire mid-stream, the pool's health and decisions are visible on
// /metrics, and a request larger than the surviving pool is shrunk to
// the live capacity (degraded) rather than refused. The benchmarks cover
// the cold/warm × faults/no-faults matrix.
package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paradigm"
	"paradigm/internal/admission"
)

// clusterLoadServer builds an in-process cluster-mode server on a pool
// of poolProcs processors, killing one partition processor on every
// faultEvery-th placement (0: fault-free).
func clusterLoadServer(tb testing.TB, poolProcs, faultEvery int) (*Server, *httptest.Server) {
	tb.Helper()
	policy, err := admission.Decode([]byte(loadPolicy))
	if err != nil {
		tb.Fatal(err)
	}
	cal, err := paradigm.Calibrate(paradigm.NewCM5(64))
	if err != nil {
		tb.Fatal(err)
	}
	mach := paradigm.NewTrainedMachine(cal)
	srv, err := New(mach, Config{
		QueueCap: 512, WALRetain: retainFailed, Policy: policy,
		ClusterProcs: poolProcs, ClusterFaults: faultEvery,
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv.Start(3)
	hs := httptest.NewServer(srv.Handler())
	tb.Cleanup(hs.Close)
	return srv, hs
}

// TestServiceClusterFaults is the service face of the cluster chaos
// gate: a seeded arrival wave against a cluster-mode server with a
// partition death on every 3rd placement. Twelve placements retire four
// processors; every acknowledged job must still finish (the pipeline
// recovers each faulted run onto the partition's survivors), and an
// oversized follow-up request must be granted the shrunken pool's full
// live capacity — degraded, not refused.
func TestServiceClusterFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster load harness skipped in -short")
	}
	srv, hs := clusterLoadServer(t, 12, 3)
	defer srv.Drain()

	// The wave: driveLoad fails the test if any acknowledged job is lost
	// or finishes failed, which is the zero-jobs-lost bar.
	driveLoad(t, srv, hs.URL, 12, 11, loadRate)

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
	resp, err := http.Post(hs.URL+"/jobs", "application/json",
		strings.NewReader(`{"program":"cmm","size":16,"procs":16}`))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("oversized submit = %s", resp.Status)
	}
	view := pollDone(t, hs.URL, acc.ID)
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
		t.Skip("cluster load harness skipped in -short")
	}
	srv, hs := clusterLoadServer(t, 12, 0)
	defer srv.Drain()
	for i := 0; i < 3; i++ {
		resp, err := http.Post(hs.URL+"/jobs", "application/json",
			strings.NewReader(`{"program":"cmm","size":16,"procs":4,"tenant":"a"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %s", i, resp.Status)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		srv.mu.Lock()
		done := 0
		for _, j := range srv.jobs {
			if j.Coalesced {
				srv.mu.Unlock()
				t.Fatal("identical submits coalesced in cluster mode")
			}
			if j.Status == "done" {
				done++
			}
		}
		n := len(srv.jobs)
		srv.mu.Unlock()
		if done == n && n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 3 jobs done", done)
		}
		time.Sleep(5 * time.Millisecond)
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

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body)
}

func pollDone(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view.Status {
		case "done":
			return view
		case "failed":
			t.Fatalf("job %s failed: %s", id, view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, view.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// benchClusterLoad drives the PR 9 arrival wave against a cluster-mode
// server. Cold builds a fresh server (and pool) per iteration; warm
// replays the wave against a server whose caches — and, with faults,
// whose already-shrunken pool — the first wave conditioned.
func benchClusterLoad(b *testing.B, faultEvery int, warm bool) {
	if warm {
		srv, hs := clusterLoadServer(b, 16, faultEvery)
		driveLoad(b, srv, hs.URL, loadJobs, 11, loadRate)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := driveLoad(b, srv, hs.URL, loadJobs, 11, loadRate)
			b.ReportMetric(res.jobsPerSec, "jobs/s")
			b.ReportMetric(float64(res.p99.Milliseconds()), "p99_ms")
		}
		b.StopTimer()
		srv.Drain()
		return
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, hs := clusterLoadServer(b, 16, faultEvery)
		b.StartTimer()
		res := driveLoad(b, srv, hs.URL, loadJobs, 11, loadRate)
		b.ReportMetric(res.jobsPerSec, "jobs/s")
		b.ReportMetric(float64(res.p99.Milliseconds()), "p99_ms")
		b.StopTimer()
		srv.Drain()
		b.StartTimer()
	}
}

func BenchmarkClusterLoadColdNoFaults(b *testing.B) { benchClusterLoad(b, 0, false) }
func BenchmarkClusterLoadColdFaults(b *testing.B)   { benchClusterLoad(b, 8, false) }
func BenchmarkClusterLoadWarmNoFaults(b *testing.B) { benchClusterLoad(b, 0, true) }
func BenchmarkClusterLoadWarmFaults(b *testing.B)   { benchClusterLoad(b, 8, true) }
