// PR 9 service-level multi-tenancy suite: tiered admission (per-tenant
// token buckets, SLO-class priorities), submit coalescing, the
// pipeline-level schedule cache, X-Tenant scoping, and the tenant
// fairness metrics — plus the golden pin of the /metrics tenant output.
package service

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"paradigm"
	"paradigm/internal/admission"
)

var updateTenantGolden = flag.Bool("update", false, "rewrite the golden tenant-metrics file under testdata")

// tenantPolicy declares a gold tenant with unlimited admission and a
// free tenant whose bucket starves after one job.
var tenantPolicy = admission.Config{
	QueuePolicy: "priority-fcfs",
	Classes:     map[string]admission.Class{"gold": {Priority: 10}, "free": {Priority: 0}},
	Tenants: map[string]admission.Tenant{
		"acme":  {Class: "gold"},
		"hobby": {Class: "free", Rate: 0.0001, Burst: 1},
	},
}

// twoTenants admits tenants a and b, unlimited, in one class.
var twoTenants = admission.Config{
	Classes: map[string]admission.Class{"std": {Priority: 1}},
	Tenants: map[string]admission.Tenant{"a": {Class: "std"}, "b": {Class: "std"}},
}

func getView(t *testing.T, base, id, tenant string) (JobView, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return view, resp.StatusCode
}

// TestServiceTenantAdmission is the smoke-paradigmd-tenants gate: two
// tenants, one coalesced pair, one starved bucket shedding 429 while the
// other tenant proceeds, one schedule-cache hit, equal digests
// everywhere, and the fairness/admission series on /metrics.
func TestServiceTenantAdmission(t *testing.T) {
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 8, Policy: tenantPolicy}, 0)
	const spec = `{"program":"cmm","size":16,"procs":4,"tenant":%q}`

	// Two identical acme submits: the second joins the first in flight.
	id1 := acceptJob(t, hs.URL, fmt.Sprintf(spec, "acme"))
	id2 := acceptJob(t, hs.URL, fmt.Sprintf(spec, "acme"))
	if v, code := getView(t, hs.URL, id2, ""); code != http.StatusOK || !v.Coalesced || v.Class != "gold" {
		t.Fatalf("coalesced view = %d %+v, want gold coalesced", code, v)
	}

	// Hobby's bucket admits one job, then starves — while acme (and the
	// already-accepted hobby job) are unaffected.
	id3 := acceptJob(t, hs.URL, fmt.Sprintf(spec, "hobby"))
	if resp := submitJob(t, hs.URL, fmt.Sprintf(spec, "hobby")); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("starved hobby submit = %s, want 429", resp.Status)
	} else {
		resp.Body.Close()
	}

	// X-Tenant scopes both the listing and the single-job lookup: another
	// tenant's job id reads as nonexistent.
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/jobs", nil)
	req.Header.Set("X-Tenant", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var views []JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(views) != 2 {
		t.Fatalf("acme-scoped listing has %d jobs, want 2", len(views))
	}
	if _, code := getView(t, hs.URL, id3, "acme"); code != http.StatusNotFound {
		t.Fatalf("cross-tenant lookup = %d, want 404", code)
	}
	if _, code := getView(t, hs.URL, id3, "hobby"); code != http.StatusOK {
		t.Fatalf("own-tenant lookup = %d, want 200", code)
	}

	// Run everything: the coalesced pair solves exactly once, the hobby
	// job replays the plan from the schedule cache, and all three digests
	// are byte-identical.
	srv.Start(1)
	d1 := waitForStatus(t, hs.URL, id1)
	d2 := waitForStatus(t, hs.URL, id2)
	d3 := waitForStatus(t, hs.URL, id3)
	for _, v := range []JobView{d1, d2, d3} {
		if v.Status != "done" || v.Digest == "" {
			t.Fatalf("job = %+v, want done with digest", v)
		}
	}
	if d1.Digest != d2.Digest || d1.Digest != d3.Digest {
		t.Fatalf("digests diverge: %s / %s / %s", d1.Digest, d2.Digest, d3.Digest)
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	rawMetrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(rawMetrics)
	for _, want := range []string{
		"paradigmd_jobs_completed_total 3",
		"paradigmd_jobs_coalesced_total 1",
		// Exactly one solve for three done jobs: one schedule-cache miss
		// (the leader's cold solve), one hit (hobby's replay), and no
		// second allocation.
		"sched_cache_miss_total 1",
		"sched_cache_hit_total 1",
		"alloc_cache_miss_total 1",
		"paradigmd_alloc_seconds_sched_cache",
		`paradigmd_tenant_rejected_total{tenant="hobby"} 1`,
		"paradigmd_tenant_fairness_jain 0.9",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "alloc_cache_hit_total") {
		t.Fatalf("hit the allocation cache — the schedule cache should have bypassed it:\n%s", text)
	}
	srv.Drain()
}

// TestServiceCoalesceStress races concurrent identical submissions from
// two tenants against running workers and a drain (run under -race):
// every 202-acknowledged job must reach a terminal state with the
// crash-free reference digest, on the tenant that submitted it, and a
// restart over the same journal must reload every one of them intact.
func TestServiceCoalesceStress(t *testing.T) {
	dir := t.TempDir()
	srv, hs := testServer(t, Config{CheckpointDir: dir, QueueCap: 256, Policy: twoTenants}, 0)

	// Crash-free reference digest for the one spec everybody submits.
	mach := testMachine(t)
	p, err := paradigm.ComplexMatMul(16, mach)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := paradigm.RunOnContext(context.Background(), p, mach, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := refRes.Digest()

	var (
		mu       sync.Mutex
		accepted = map[string]string{} // id -> tenant
	)
	burst := func(rounds int) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			tenant := "a"
			if g%2 == 1 {
				tenant = "b"
			}
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				body := fmt.Sprintf(`{"program":"cmm","size":16,"procs":4,"tenant":%q}`, tenant)
				for i := 0; i < rounds; i++ {
					resp := submitJob(t, hs.URL, body)
					if resp.StatusCode == http.StatusAccepted {
						var acc struct{ ID string }
						if err := json.NewDecoder(resp.Body).Decode(&acc); err == nil {
							mu.Lock()
							accepted[acc.ID] = tenant
							mu.Unlock()
						}
					} else if resp.StatusCode != http.StatusServiceUnavailable {
						t.Errorf("racing submit = %s", resp.Status)
					}
					resp.Body.Close()
				}
			}(tenant)
		}
		wg.Wait()
	}

	// Phase 1: no workers, so all but one submit per tenant must
	// coalesce. Phase 2 races more submits against the running workers
	// and the drain.
	burst(3)
	srv.Start(2)
	burst(3)
	time.Sleep(time.Millisecond)
	srv.Drain()

	srv.mu.Lock()
	coalesced := 0
	for id, tenant := range accepted {
		j, ok := srv.jobs[id]
		if !ok {
			srv.mu.Unlock()
			t.Fatalf("acknowledged job %s not registered", id)
		}
		if j.Status != "done" || j.Digest != ref {
			srv.mu.Unlock()
			t.Fatalf("job %s = %s digest %s, want done with %s", id, j.Status, j.Digest, ref)
		}
		if j.Tenant != tenant {
			srv.mu.Unlock()
			t.Fatalf("job %s leaked across tenants: %q, submitted by %q", id, j.Tenant, tenant)
		}
		if j.Coalesced {
			coalesced++
		}
	}
	registered := len(srv.jobs)
	srv.mu.Unlock()
	if registered != len(accepted) {
		t.Fatalf("registered %d jobs, acknowledged %d", registered, len(accepted))
	}
	// Phase 1 alone guarantees 24 submits onto at most 2 leaders.
	if coalesced < 22 {
		t.Fatalf("only %d jobs coalesced, want >= 22", coalesced)
	}

	// Restart over the same sharded journal: every acknowledged job
	// reloads terminal with its digest.
	srv2, _ := testServer(t, Config{CheckpointDir: dir, QueueCap: 4}, 0)
	srv2.mu.Lock()
	defer srv2.mu.Unlock()
	if len(srv2.jobs) != len(accepted) {
		t.Fatalf("restart reloaded %d jobs, acknowledged %d", len(srv2.jobs), len(accepted))
	}
	for id, tenant := range accepted {
		j, ok := srv2.jobs[id]
		if !ok || j.Status != "done" || j.Digest != ref || j.Tenant != tenant {
			t.Fatalf("restart lost job %s: %+v", id, j)
		}
	}
}

// goldenMetricPrefixes are the deterministic series the golden file
// pins; wall-clock histograms and journal byte counters stay out.
var goldenMetricPrefixes = []string{
	"paradigmd_tenant_", "paradigmd_jobs_", "sched_cache_", "alloc_cache_",
	"paradigmd_wal_materialized_", "paradigmd_programs_",
}

// TestMetricsTenantGolden pins the tenant-facing /metrics output —
// fairness index, per-tenant depth/completed/rejected, cache and
// coalesce counters — for a fixed submission sequence. Intentional
// changes are re-blessed with -update.
func TestMetricsTenantGolden(t *testing.T) {
	// A checkpoint directory, so that the WAL counters are live: acme's
	// solve materializes a WAL and has it collected, hobby's job replays
	// acme's plan and touches none, and both share one built program.
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 8, Policy: tenantPolicy}, 0)
	const spec = `{"program":"cmm","size":16,"procs":4,"tenant":%q}`
	acceptJob(t, hs.URL, fmt.Sprintf(spec, "acme"))
	acceptJob(t, hs.URL, fmt.Sprintf(spec, "acme")) // coalesces
	acceptJob(t, hs.URL, fmt.Sprintf(spec, "hobby"))
	if resp := submitJob(t, hs.URL, fmt.Sprintf(spec, "hobby")); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("starved submit = %s, want 429", resp.Status)
	} else {
		resp.Body.Close()
	}
	// Drain's sweep runs the backlog in priority order on this goroutine:
	// the whole sequence is deterministic.
	srv.Drain()
	srv.renderTenantMetrics()

	var b strings.Builder
	for _, line := range strings.Split(srv.reg.Snapshot().Text(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 3 || (fields[0] != "counter" && fields[0] != "gauge") {
			continue
		}
		for _, prefix := range goldenMetricPrefixes {
			if strings.HasPrefix(fields[1], prefix) {
				b.WriteString(line)
				b.WriteByte('\n')
				break
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "metrics_tenants.golden")
	if *updateTenantGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("tenant metrics diverged from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
