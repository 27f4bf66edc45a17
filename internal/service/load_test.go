// The PR 9 load harness: a deterministic seeded Poisson/Gamma arrival
// stream (internal/loadgen) drives a live in-process paradigmd over real
// HTTP from two tenants, measuring throughput (jobs/sec) and p99
// submit→terminal latency. The cold wave solves every plan; the warm
// wave replays the same specs through the schedule cache and coalescing,
// so the pair quantifies the multi-tenant fast path.
package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"paradigm"
	"paradigm/internal/admission"
	"paradigm/internal/loadgen"
)

// loadSpecs are the offered job mix; the Gamma weight picks the spec, so
// the mix is deterministic per seed but not uniform.
var loadSpecs = []string{
	`{"program":"cmm","size":16,"procs":4,"tenant":%q}`,
	`{"program":"cmm","size":16,"procs":8,"tenant":%q}`,
	`{"program":"strassen","size":16,"procs":4,"tenant":%q}`,
}

type loadResult struct {
	jobsPerSec float64
	p99        time.Duration
}

// driveLoad offers n jobs to the server on the seeded Poisson schedule
// (rate jobs/second, Gamma(2,1) weights, tenants alternating a/b) and
// waits for every acknowledged job to reach a terminal state. Latency is
// measured per job from its submit acknowledgement to the first poll
// that observes it terminal.
func driveLoad(tb testing.TB, srv *Server, base string, n int, seed uint64, rate float64) loadResult {
	tb.Helper()
	arrivals := loadgen.Poisson(seed, n, rate, 2, 1)
	start := time.Now()
	type inflight struct {
		id       string
		accepted time.Time
	}
	jobs := make([]inflight, 0, n)
	for i, a := range arrivals {
		if d := time.Until(start.Add(time.Duration(a.Offset * float64(time.Second)))); d > 0 {
			time.Sleep(d)
		}
		tenant := "a"
		if i%2 == 1 {
			tenant = "b"
		}
		// The Gamma weight has mean 2; split its mass across the mix.
		spec := loadSpecs[0]
		switch {
		case a.Weight > 3:
			spec = loadSpecs[2]
		case a.Weight > 1.5:
			spec = loadSpecs[1]
		}
		resp, err := http.Post(base+"/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(spec, tenant)))
		if err != nil {
			tb.Fatal(err)
		}
		var acc struct{ ID string }
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			tb.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			tb.Fatalf("load submit %d = %s", i, resp.Status)
		}
		jobs = append(jobs, inflight{id: acc.ID, accepted: time.Now()})
	}

	// Poll in-process for terminal states; every acknowledged job must
	// finish.
	latencies := make([]time.Duration, len(jobs))
	remaining := len(jobs)
	deadline := time.Now().Add(120 * time.Second)
	for remaining > 0 {
		if time.Now().After(deadline) {
			tb.Fatalf("%d load jobs never finished", remaining)
		}
		now := time.Now()
		srv.mu.Lock()
		for i := range jobs {
			if latencies[i] != 0 {
				continue
			}
			j := srv.jobs[jobs[i].id]
			if j.Status == "failed" {
				srv.mu.Unlock()
				tb.Fatalf("load job %s failed: %s", j.ID, j.Error)
			}
			if j.Status == "done" {
				latencies[i] = now.Sub(jobs[i].accepted)
				remaining--
			}
		}
		srv.mu.Unlock()
		if remaining > 0 {
			time.Sleep(time.Millisecond)
		}
	}
	elapsed := time.Since(start)
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	p99 := latencies[(len(latencies)*99+99)/100-1]
	return loadResult{jobsPerSec: float64(len(jobs)) / elapsed.Seconds(), p99: p99}
}

const loadPolicy = `{
  "classes": {"std": {"priority": 1}},
  "tenants": {"a": {"class": "std"}, "b": {"class": "std"}}
}`

func loadServer(tb testing.TB) (*Server, *httptest.Server) {
	policy, err := admission.Decode([]byte(loadPolicy))
	if err != nil {
		tb.Fatal(err)
	}
	cal, err := paradigm.Calibrate(paradigm.NewCM5(64))
	if err != nil {
		tb.Fatal(err)
	}
	mach := paradigm.NewTrainedMachine(cal)
	srv, err := New(mach, Config{QueueCap: 512, WALRetain: retainFailed, Policy: policy})
	if err != nil {
		tb.Fatal(err)
	}
	srv.Start(2)
	hs := httptest.NewServer(srv.Handler())
	tb.Cleanup(hs.Close)
	return srv, hs
}

const (
	loadJobs = 40
	loadRate = 400.0 // offered jobs/second
)

// BenchmarkServiceLoadCold measures the seeded arrival wave against a
// fresh server: every distinct plan solves cold.
func BenchmarkServiceLoadCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, hs := loadServer(b)
		b.StartTimer()
		res := driveLoad(b, srv, hs.URL, loadJobs, 9, loadRate)
		b.ReportMetric(res.jobsPerSec, "jobs/s")
		b.ReportMetric(float64(res.p99.Milliseconds()), "p99_ms")
		b.StopTimer()
		srv.Drain()
		b.StartTimer()
	}
}

// BenchmarkServiceLoadWarm replays the identical wave against a server
// whose schedule cache the cold wave already filled.
func BenchmarkServiceLoadWarm(b *testing.B) {
	srv, hs := loadServer(b)
	driveLoad(b, srv, hs.URL, loadJobs, 9, loadRate) // warm the caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := driveLoad(b, srv, hs.URL, loadJobs, 9, loadRate)
		b.ReportMetric(res.jobsPerSec, "jobs/s")
		b.ReportMetric(float64(res.p99.Milliseconds()), "p99_ms")
	}
	b.StopTimer()
	srv.Drain()
}

// TestServiceLoadSLO is the correctness face of the harness: the same
// deterministic wave, cold then warm on one server, every acknowledged
// job terminal, and the warm wave inside generous relative SLO bounds of
// the cold one (the schedule cache must not make repeat traffic slower).
func TestServiceLoadSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness skipped in -short")
	}
	srv, hs := loadServer(t)
	cold := driveLoad(t, srv, hs.URL, loadJobs, 9, loadRate)
	warm := driveLoad(t, srv, hs.URL, loadJobs, 9, loadRate)
	t.Logf("cold: %.1f jobs/s p99 %v; warm: %.1f jobs/s p99 %v",
		cold.jobsPerSec, cold.p99, warm.jobsPerSec, warm.p99)

	// Generous bounds: the warm wave replays plans from the schedule
	// cache, so it must not collapse relative to cold. Wall-clock noise
	// on shared CI gets a wide margin.
	if warm.jobsPerSec < cold.jobsPerSec/3 {
		t.Fatalf("warm throughput %.2f jobs/s collapsed vs cold %.2f", warm.jobsPerSec, cold.jobsPerSec)
	}
	if warm.p99 > 3*cold.p99+500*time.Millisecond {
		t.Fatalf("warm p99 %v blew past cold %v", warm.p99, cold.p99)
	}
	srv.Drain()
}
