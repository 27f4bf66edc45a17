// Cluster-mode service tests and the PR 10 load benchmarks: the seeded
// loadgen arrival wave drives a paradigmd whose jobs share one
// wall-clock processor pool, with deterministic partition deaths
// injected every Nth placement. The gates: every acknowledged job
// reaches a terminal state with zero losses while processors die and
// retire mid-stream, the pool's health and decisions are visible on
// /metrics, and a request larger than the surviving pool is shrunk to
// the live capacity (degraded) rather than refused. The benchmarks cover
// the cold/warm × faults/no-faults matrix.
package main

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

// clusterLoadServer builds an in-process cluster-mode server: a
// 12-processor pool behind the least-loaded router, killing one
// partition processor on every faultEvery-th placement (0: fault-free).
func clusterLoadServer(tb testing.TB, poolProcs, faultEvery int) (*server, *httptest.Server) {
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
	srv, err := newServer(mach, serverConfig{
		queueCap: 512, retries: 2, walRetain: retainFailed, policy: policy,
		cluster: clusterConfig{procs: poolProcs, router: "least-loaded", faultEvery: faultEvery},
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv.start(3)
	hs := httptest.NewServer(srv.handler())
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
	defer srv.drain()

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
	defer srv.drain()
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

func pollDone(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view jobView
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
		srv.drain()
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
		srv.drain()
		b.StartTimer()
	}
}

func BenchmarkClusterLoadColdNoFaults(b *testing.B) { benchClusterLoad(b, 0, false) }
func BenchmarkClusterLoadColdFaults(b *testing.B)   { benchClusterLoad(b, 8, false) }
func BenchmarkClusterLoadWarmNoFaults(b *testing.B) { benchClusterLoad(b, 0, true) }
func BenchmarkClusterLoadWarmFaults(b *testing.B)   { benchClusterLoad(b, 8, true) }
