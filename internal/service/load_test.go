// Waves: a literal list of specs submitted over real HTTP to a live
// in-process paradigmd from two tenants, every acknowledged job awaited
// to a terminal state. TestServiceLoadSLO runs one wave cold and again
// warm on one server; the cluster tests run theirs on a shared pool.
package service

import (
	"slices"
	"testing"
	"time"
)

// wave is twelve jobs over a three-spec mix, tenants alternating a/b.
var wave = []string{
	`{"program":"cmm","size":16,"procs":4,"tenant":"a"}`,
	`{"program":"strassen","size":16,"procs":4,"tenant":"b"}`,
	`{"program":"strassen","size":16,"procs":4,"tenant":"a"}`,
	`{"program":"strassen","size":16,"procs":4,"tenant":"b"}`,
	`{"program":"cmm","size":16,"procs":4,"tenant":"a"}`,
	`{"program":"cmm","size":16,"procs":8,"tenant":"b"}`,
	`{"program":"strassen","size":16,"procs":4,"tenant":"a"}`,
	`{"program":"cmm","size":16,"procs":4,"tenant":"b"}`,
	`{"program":"cmm","size":16,"procs":4,"tenant":"a"}`,
	`{"program":"cmm","size":16,"procs":4,"tenant":"b"}`,
	`{"program":"cmm","size":16,"procs":8,"tenant":"a"}`,
	`{"program":"cmm","size":16,"procs":8,"tenant":"b"}`,
}

// waveResult is what runWave saw: every job's terminal view in
// submission order, the wave's throughput, and the p99 of its jobs'
// latencies.
type waveResult struct {
	views      []JobView
	jobsPerSec float64
	p99        time.Duration
}

// runWave submits specs in order, then waits until every acknowledged
// job is terminal; a refused submit or a failed job fails the test. A
// job's latency runs from its acknowledgement to the poll that first saw
// it terminal, polling the jobs in submission order.
func runWave(t *testing.T, base string, specs []string) waveResult {
	t.Helper()
	start := time.Now()
	ids := make([]string, len(specs))
	accepted := make([]time.Time, len(specs))
	for i, spec := range specs {
		ids[i], accepted[i] = acceptJob(t, base, spec), time.Now()
	}
	res := waveResult{views: make([]JobView, len(specs))}
	latencies := make([]time.Duration, len(specs))
	for i, id := range ids {
		v := waitForStatus(t, base, id)
		if v.Status != "done" {
			t.Fatalf("wave job %s = %+v", id, v)
		}
		res.views[i], latencies[i] = v, time.Since(accepted[i])
	}
	res.jobsPerSec = float64(len(specs)) / time.Since(start).Seconds()
	slices.Sort(latencies)
	res.p99 = latencies[(len(latencies)*99+99)/100-1]
	return res
}

// TestServiceLoadSLO runs the same wave three times over, cold then warm
// on one server: every acknowledged job terminal, and the warm wave
// inside generous relative SLO bounds of the cold one (the schedule
// cache must not make repeat traffic slower).
func TestServiceLoadSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("load waves skipped in -short")
	}
	srv, hs := testServer(t, Config{QueueCap: 512, Policy: twoTenants}, 2)
	var specs []string
	for range 3 {
		specs = append(specs, wave...)
	}
	cold := runWave(t, hs.URL, specs)
	warm := runWave(t, hs.URL, specs)
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
