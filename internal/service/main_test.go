package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"paradigm"
	"paradigm/internal/jobstore"
)

// cm5 is the calibrated CM-5 every test server and reference run uses,
// calibrated once per package run: the calibration is deterministic and
// the backend is read-only.
var cm5 = sync.OnceValues(func() (paradigm.MachineBackend, error) {
	cal, err := paradigm.CalibrateContext(context.Background(), paradigm.NewCM5(64))
	if err != nil {
		return nil, err
	}
	return paradigm.NewTrainedMachine(cal), nil
})

func testMachine(tb testing.TB) paradigm.MachineBackend {
	tb.Helper()
	mach, err := cm5()
	if err != nil {
		tb.Fatal(err)
	}
	return mach
}

// testServer boots a server from cfg on the calibrated CM-5 (an empty
// WALRetain keeps failed jobs' WALs, paradigmd's default), starts
// workers workers and serves its handler over HTTP.
func testServer(tb testing.TB, cfg Config, workers int) (*Server, *httptest.Server) {
	tb.Helper()
	if cfg.WALRetain == "" {
		cfg.WALRetain = retainFailed
	}
	srv, err := New(testMachine(tb), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	srv.Start(workers)
	hs := httptest.NewServer(srv.Handler())
	tb.Cleanup(hs.Close)
	return srv, hs
}

func submitJob(t *testing.T, base, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// acceptJob submits body, requires a 202 and returns the job's id.
func acceptJob(t *testing.T, base, body string) string {
	t.Helper()
	resp := submitJob(t, base, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s = %s", body, resp.Status)
	}
	var acc struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	return acc.ID
}

// waitForStatus polls a job until it reaches a terminal status.
func waitForStatus(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if view.Status == "done" || view.Status == "failed" {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, view.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestServiceJobLifecycle(t *testing.T) {
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 4}, 1)
	view := waitForStatus(t, hs.URL, acceptJob(t, hs.URL, `{"program":"cmm","size":16,"procs":4}`))
	if view.Status != "done" || view.Actual <= 0 {
		t.Fatalf("job = %+v", view)
	}

	resp, err := http.Get(hs.URL + "/jobs/" + view.ID + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule = %s", resp.Status)
	}

	if text := scrapeMetrics(t, hs.URL); !strings.Contains(text, "paradigmd_jobs_completed_total 1") {
		t.Fatalf("metrics missing completion counter:\n%s", text)
	}
	if srv.Completed() != 1 {
		t.Fatalf("completed = %d, want 1", srv.Completed())
	}
}

// A malformed job must come back as a failed status, not a crashed
// worker: the library's panic containment holds the boundary.
func TestServiceBadJobFails(t *testing.T) {
	_, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 4}, 1)
	view := waitForStatus(t, hs.URL, acceptJob(t, hs.URL, `{"program":"nope","size":8,"procs":4}`))
	if view.Status != "failed" {
		t.Fatalf("bad job never failed: %+v", view)
	}
	if !strings.Contains(view.Error, "unknown program") {
		t.Fatalf("failure reason = %q", view.Error)
	}
}

// Admission control: with no workers draining the queue, submissions
// past the bound are shed with 429, and invalid payloads are 400s.
func TestServiceLoadShedding(t *testing.T) {
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 1}, 0) // no workers: the queue only fills
	if resp := submitJob(t, hs.URL, `{"program":"cmm","size":16,"procs":4}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %s", resp.Status)
	}
	// A distinct spec cannot coalesce onto the queued job, so it needs a
	// queue slot of its own and is shed.
	resp := submitJob(t, hs.URL, `{"program":"cmm","size":32,"procs":4}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %s, want 429", resp.Status)
	}
	resp.Body.Close()
	if !strings.Contains(srv.reg.Snapshot().Text(), "paradigmd_jobs_rejected_total 1") {
		t.Fatal("rejection not counted")
	}
	if resp := submitJob(t, hs.URL, `{"size":0,"procs":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid payload = %s, want 400", resp.Status)
	}
	// The shed job must not be listed.
	listResp, err := http.Get(hs.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var views []JobView
	if err := json.NewDecoder(listResp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 {
		t.Fatalf("listed %d jobs, want 1", len(views))
	}
}

func getHealth(t *testing.T, base string) (HealthView, int) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthView
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h, resp.StatusCode
}

// An oversized submit body is refused with 413, not decoded from a
// silent truncation.
func TestServiceSubmitBodyTooLarge(t *testing.T) {
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 4}, 0)
	body := `{"program":"cmm","size":16,"procs":4,` +
		`"pad":"` + strings.Repeat("x", maxSubmitBytes) + `"}`
	resp := submitJob(t, hs.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit = %s, want 413", resp.Status)
	}
	if !strings.Contains(srv.reg.Snapshot().Text(), "paradigmd_jobs_rejected_total 1") {
		t.Fatal("oversized rejection not counted")
	}
	// A body just under the limit still parses.
	small := `{"program":"cmm","size":16,"procs":4}`
	if resp := submitJob(t, hs.URL, small); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small submit = %s, want 202", resp.Status)
	}
}

// /healthz walks its three states: ok when idle, degraded while the
// breaker is shedding the solver, draining (503) after drain starts.
func TestServiceHealthStates(t *testing.T) {
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 4}, 0)
	if h, code := getHealth(t, hs.URL); code != http.StatusOK || h.State != "ok" || h.Breaker != "closed" {
		t.Fatalf("idle healthz = %d %+v, want 200 ok/closed", code, h)
	}

	// A queued-but-unrun job is journal lag and queue depth.
	if resp := submitJob(t, hs.URL, `{"program":"cmm","size":16,"procs":4}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %s", resp.Status)
	}
	if h, _ := getHealth(t, hs.URL); h.QueueDepth != 1 || h.JournalLag != 1 {
		t.Fatalf("queued healthz = %+v, want depth 1 lag 1", h)
	}

	// Trip the shared breaker: the service is degraded but still serving.
	for i := 0; i < 3; i++ {
		srv.breaker.Failure()
	}
	if h, code := getHealth(t, hs.URL); code != http.StatusOK || h.State != "degraded" || h.Breaker == "closed" {
		t.Fatalf("tripped healthz = %d %+v, want 200 degraded", code, h)
	}
	srv.breaker.Success()

	srv.Drain()
	if h, code := getHealth(t, hs.URL); code != http.StatusServiceUnavailable || h.State != "draining" {
		t.Fatalf("draining healthz = %d %+v, want 503 draining", code, h)
	}
	// Drain's final sweep ran the queued job; the journal has no lag.
	if h, _ := getHealth(t, hs.URL); h.JournalLag != 0 {
		t.Fatalf("post-drain journal lag = %d, want 0", h.JournalLag)
	}
}

// The drain/submit race: a submit racing drain() either gets an
// admission refusal or its job completes — an accepted job is never
// left queued. Run with -race.
func TestServiceSubmitDrainRace(t *testing.T) {
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 64}, 2)
	// Warm the allocation cache so racing jobs replay instantly.
	waitForStatus(t, hs.URL, acceptJob(t, hs.URL, `{"program":"cmm","size":16,"procs":4}`))

	var (
		mu       sync.Mutex
		accepted []string
		wg       sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				resp := submitJob(t, hs.URL, `{"program":"cmm","size":16,"procs":4}`)
				switch resp.StatusCode {
				case http.StatusAccepted:
					var a struct{ ID string }
					if err := json.NewDecoder(resp.Body).Decode(&a); err == nil {
						mu.Lock()
						accepted = append(accepted, a.ID)
						mu.Unlock()
					}
				case http.StatusServiceUnavailable, http.StatusTooManyRequests:
					// Refused: fine, as long as it was not registered.
				default:
					t.Errorf("racing submit = %s", resp.Status)
				}
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	srv.Drain()
	wg.Wait()

	// Every acknowledged job must be terminal — drain never drops one.
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, id := range accepted {
		j, ok := srv.jobs[id]
		if !ok {
			t.Fatalf("accepted job %s not registered", id)
		}
		if j.Status != "done" && j.Status != "failed" {
			t.Fatalf("accepted job %s left in %q after drain", id, j.Status)
		}
	}
	if len(srv.jobs) != len(accepted)+1 {
		t.Fatalf("registered %d jobs, acknowledged %d", len(srv.jobs), len(accepted)+1)
	}
}

// A seeded fault plan with a recovery budget runs the job through the
// degraded path: the processor loss is survived, the journaled digest
// reflects the recovery trajectory, and the recovery counters move.
func TestServiceFaultSeedRecovery(t *testing.T) {
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 4}, 1)
	view := waitForStatus(t, hs.URL, acceptJob(t, hs.URL, `{"program":"cmm","size":16,"procs":4,"recover":2,"retries":3,"fault_seed":7}`))
	if view.Status != "done" {
		t.Fatalf("faulted job = %+v, want done", view)
	}
	if view.Digest == "" {
		t.Fatal("faulted job has no digest")
	}
	// The recovery counters exist only once a Recovery event was folded,
	// and the job is done: it took the recovery path and came out of it.
	// Its allocation replayed from the cache the fault-plan pre-run
	// warmed, so the salvage is what gave it a WAL.
	text := srv.reg.Snapshot().Text()
	for _, want := range []string{"recovery_attempts_total", "recovery_failed_procs_total", "paradigmd_wal_materialized_total 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// Restart recovery: a new server over the same checkpoint directory
// reloads finished jobs (digest intact, schedule gone) and re-enqueues
// unfinished ones, which complete with digests identical to a fresh
// crash-free run.
func TestServiceRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	srv1, hs1 := testServer(t, Config{CheckpointDir: dir, QueueCap: 4}, 0) // no workers: jobs stay queued
	var ids []string
	for _, body := range []string{
		`{"program":"cmm","size":16,"procs":4}`,
		`{"program":"strassen","size":16,"procs":4}`,
		`{"program":"cmm","size":16,"procs":8}`,
	} {
		ids = append(ids, acceptJob(t, hs1.URL, body))
	}
	// Run exactly one job to completion, then abandon the server — the
	// moral equivalent of a crash with two jobs still queued.
	it, ok := srv1.queue.TryPop()
	if !ok {
		t.Fatal("no queued job to run")
	}
	srv1.runJob(it.Payload.(*job))
	doneDigest := func() string {
		srv1.mu.Lock()
		defer srv1.mu.Unlock()
		if j := srv1.jobs[ids[0]]; j.Status == "done" {
			return j.Digest
		}
		return ""
	}()
	if doneDigest == "" {
		t.Fatal("first job did not complete")
	}

	// "Restart": a second server over the same directory.
	srv2, hs2 := testServer(t, Config{CheckpointDir: dir, QueueCap: 4}, 0)

	// Before the workers start, the recovered backlog reports degraded.
	if h, code := getHealth(t, hs2.URL); code != http.StatusOK || h.State != "degraded" || h.RecoveredPending != 2 {
		t.Fatalf("boot healthz = %d %+v, want degraded with 2 pending", code, h)
	}
	text := srv2.reg.Snapshot().Text()
	for _, want := range []string{"paradigmd_jobs_reloaded_total 1", "paradigmd_jobs_recovered_total 2"} {
		if !strings.Contains(text, want) {
			t.Fatalf("boot metrics missing %q:\n%s", want, text)
		}
	}

	// The finished job survives with its digest; its rendered schedule
	// did not survive and says so.
	reloaded := waitForStatus(t, hs2.URL, ids[0])
	if reloaded.Status != "done" || reloaded.Digest != doneDigest {
		t.Fatalf("reloaded job = %+v, want done with digest %s", reloaded, doneDigest)
	}
	resp, err := http.Get(hs2.URL + "/jobs/" + ids[0] + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("reloaded schedule = %s, want 410", resp.Status)
	}

	srv2.Start(1)
	for i, id := range ids[1:] {
		view := waitForStatus(t, hs2.URL, id)
		if view.Status != "done" {
			t.Fatalf("recovered job %s = %+v", id, view)
		}
		// Byte-identity: the recovered run's digest equals a fresh
		// library run of the same job.
		want := referenceDigest(t, i)
		if view.Digest != want {
			t.Fatalf("recovered job %s digest = %s, want crash-free %s", id, view.Digest, want)
		}
	}
	if h, _ := getHealth(t, hs2.URL); h.State != "ok" || h.RecoveredPending != 0 || h.JournalLag != 0 {
		t.Fatalf("post-recovery healthz = %+v, want ok with no backlog", h)
	}
}

// referenceDigest computes the crash-free digest for the i-th pending
// job of TestServiceRestartRecovery directly through the library.
func referenceDigest(t *testing.T, i int) string {
	t.Helper()
	mach := testMachine(t)
	var (
		p     *paradigm.Program
		procs int
		err   error
	)
	switch i {
	case 0:
		p, err = paradigm.Strassen(16, mach)
		procs = 4
	default:
		p, err = paradigm.ComplexMatMul(16, mach)
		procs = 8
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := paradigm.RunOnContext(context.Background(), p, mach, procs)
	if err != nil {
		t.Fatal(err)
	}
	return res.Digest()
}

// A corrupt job journal refuses boot with the typed sentinel instead of
// silently dropping accepted jobs.
func TestServiceCorruptJournalRefused(t *testing.T) {
	dir := t.TempDir()
	srv1, hs1 := testServer(t, Config{CheckpointDir: dir, QueueCap: 4}, 1)
	waitForStatus(t, hs1.URL, acceptJob(t, hs1.URL, `{"program":"cmm","size":16,"procs":4}`))
	srv1.Drain()

	// Submits land on the default tenant's shard: corrupt the shard file
	// that actually holds records (the only one with more than a header).
	shards, err := filepath.Glob(filepath.Join(dir, "jobs-shard-*.journal"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shard files: %v (%v)", shards, err)
	}
	path, best := "", int64(0)
	for _, p := range shards {
		if fi, err := os.Stat(p); err == nil && fi.Size() > best {
			path, best = p, fi.Size()
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// New itself, not testServer: the boot error is the subject.
	_, err = New(testMachine(t), Config{
		CheckpointDir: dir, QueueCap: 4, WALRetain: retainFailed,
	})
	if !errors.Is(err, paradigm.ErrJobJournalCorrupt) {
		t.Fatalf("boot over corrupt journal = %v, want ErrJobJournalCorrupt", err)
	}
}

// WAL retention: a completed job's WAL is collected on committed
// completion, a failed job's WAL is kept under the default policy, and
// retain-all keeps everything.
func TestServiceWALRetention(t *testing.T) {
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 4}, 1)
	id := acceptJob(t, hs.URL, `{"program":"cmm","size":16,"procs":4}`)
	if view := waitForStatus(t, hs.URL, id); view.Status != "done" {
		t.Fatalf("job = %+v", view)
	}
	// runJob publishes "done" before it journals the transition and
	// collects the WAL; Completed counts the job only after both.
	srv.waitIdle(t)
	walPath := filepath.Join(srv.cfg.CheckpointDir, "job-"+id+".wal")
	if _, err := os.Stat(walPath); !os.IsNotExist(err) {
		t.Fatalf("completed job WAL not collected: %v", err)
	}
	if !strings.Contains(srv.reg.Snapshot().Text(), "paradigmd_wal_gc_total 1") {
		t.Fatal("WAL GC not counted")
	}
	// The same spec again replays from the schedule cache: it has no WAL
	// to collect, and the collector does not count one.
	if view := waitForStatus(t, hs.URL, acceptJob(t, hs.URL, `{"program":"cmm","size":16,"procs":4}`)); view.Status != "done" {
		t.Fatalf("replayed job = %+v", view)
	}
	srv.Drain()
	if text := srv.reg.Snapshot().Text(); !strings.Contains(text, "paradigmd_wal_gc_total 1") ||
		!strings.Contains(text, "paradigmd_wal_materialized_total 1") || !strings.Contains(text, "sched_cache_hit_total 1") {
		t.Fatalf("replayed job touched a WAL:\n%s", text)
	}

	// Policy matrix, directly against gcWAL.
	mk := func(id string) string {
		p := filepath.Join(srv.cfg.CheckpointDir, "job-"+id+".wal")
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		retain  string
		success bool
		kept    bool
	}{
		{retainFailed, false, true},
		{retainAll, true, true},
		{retainAll, false, true},
		{retainNone, false, false},
	}
	for i, c := range cases {
		id := "gc" + strconv.Itoa(i)
		p := mk(id)
		srv.cfg.WALRetain = c.retain
		srv.gcWAL(id, c.success)
		_, err := os.Stat(p)
		if kept := err == nil; kept != c.kept {
			t.Fatalf("retain=%s success=%v: kept=%v, want %v", c.retain, c.success, kept, c.kept)
		}
	}
}

// Graceful drain: accepted jobs finish, new submissions are refused
// with 503, and health flips to draining.
func TestServiceGracefulDrain(t *testing.T) {
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 4}, 1)
	if resp := submitJob(t, hs.URL, `{"program":"cmm","size":16,"procs":4}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %s", resp.Status)
	}
	srv.Drain()
	if srv.Completed() != 1 {
		t.Fatalf("drain finished %d jobs, want 1", srv.Completed())
	}
	if resp := submitJob(t, hs.URL, `{"program":"cmm","size":16,"procs":4}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit = %s, want 503", resp.Status)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %s, want 503", resp.Status)
	}
}

// Submit bounds size and procs at the HTTP edge: past 1024 either one is
// refused with 400 before a worker could build it, and a job at the
// bounds is accepted. A seeded plan with recovery kills a processor, so
// on one processor it is refused too: that job could only fail. Without
// recovery the plan only delays a message, and the job is accepted. No
// worker runs, so an accepted job stays queued.
func TestServiceSubmitBounds(t *testing.T) {
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 8}, 0)
	accepted := 0
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"program":"cmm","size":1000000,"procs":4}`, http.StatusBadRequest},
		{`{"program":"cmm","size":1025,"procs":4}`, http.StatusBadRequest},
		{`{"program":"cmm","size":16,"procs":1025}`, http.StatusBadRequest},
		{`{"program":"cmm","size":1024,"procs":1024}`, http.StatusAccepted},
		{`{"program":"cmm","size":16,"procs":1,"fault_seed":7,"recover":2}`, http.StatusBadRequest},
		{`{"program":"cmm","size":16,"procs":1,"fault_seed":7}`, http.StatusAccepted},
	} {
		resp := submitJob(t, hs.URL, c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("submit %s = %s, want %d", c.body, resp.Status, c.want)
		}
		if c.want == http.StatusAccepted {
			accepted++
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.jobs) != accepted {
		t.Fatalf("registered %d jobs, want the %d within bounds", len(srv.jobs), accepted)
	}
}

// A recovered job's schedule indexes the residual program's graph —
// renumbered, with restore_ nodes — not the submitted one, and
// /jobs/{id}/schedule renders it against that graph.
func TestServiceRecoveredScheduleNamesResidualGraph(t *testing.T) {
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 4}, 1)
	for _, program := range []string{"strassen", "cmm"} {
		sub := jobstore.Submit{ID: "probe-" + program, Program: program, Size: 32, Procs: 8, Recover: 2, FaultSeed: 1}
		body := fmt.Sprintf(`{"program":%q,"size":32,"procs":8,"recover":2,"fault_seed":1}`, program)
		view := waitForStatus(t, hs.URL, acceptJob(t, hs.URL, body))
		if view.Status != "done" {
			t.Fatalf("%s job = %+v, want done", program, view)
		}
		resp, err := http.Get(hs.URL + "/jobs/" + view.ID + "/schedule")
		if err != nil {
			t.Fatal(err)
		}
		served, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// The same job run again: the pipeline is deterministic, so this
		// is the served job's result.
		run, err := srv.execute(sub)
		if err != nil {
			t.Fatal(err)
		}
		if !run.res.Recovered || run.res.Digest() != view.Digest {
			t.Fatalf("%s: recovered=%v digest %s, want a recovered run with the job's digest %s",
				program, run.res.Recovered, run.res.Digest(), view.Digest)
		}
		if want := run.res.Sched.Table(run.res.Program.G); string(served) != want {
			t.Fatalf("%s: served schedule is not rendered against the residual graph:\n%s\nwant:\n%s", program, served, want)
		}
	}
}

// The service on an analytical machine: a cm5-hetero8 job carries the
// digest of the library run on the same backend.
func TestServiceAnalyticalMachine(t *testing.T) {
	mach, err := paradigm.ResolveMachine("cm5-hetero8")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(mach, Config{QueueCap: 4, WALRetain: retainFailed})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(1)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	view := waitForStatus(t, hs.URL, acceptJob(t, hs.URL, `{"program":"cmm","size":16,"procs":8}`))

	b, err := paradigm.ResolveMachine("cm5-hetero8")
	if err != nil {
		t.Fatal(err)
	}
	p, err := paradigm.ComplexMatMul(16, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := paradigm.RunOnContext(context.Background(), p, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != "done" || view.Digest != res.Digest() {
		t.Fatalf("cm5-hetero8 job = %+v, want done with the library digest %s", view, res.Digest())
	}
	info := fmt.Sprintf("paradigmd_machine_info{name=%q,kind=%q} 1", b.Name(), paradigm.MachineAnalytical)
	if text := srv.reg.Snapshot().Text(); !strings.Contains(text, info) {
		t.Fatalf("metrics missing %s:\n%s", info, text)
	}
}
