// Gates on what a hot job costs and what a finished job keeps: a job
// whose plan replays from the schedule cache writes no WAL, ever; a
// SIGKILL with such jobs acknowledged loses none of them; and the
// server's heap does not grow with the results it has handed out.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// Under retain-all nothing is ever collected, so the directory is a
// record of every WAL that existed at any point: after one solved job
// and five replayed ones it holds exactly the solved job's.
func TestServiceHotJobWritesNoWAL(t *testing.T) {
	dir := t.TempDir()
	srv, err := newServer(testMachine(t), serverConfig{
		ckptDir: dir, queueCap: 8, walRetain: retainAll, retries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.start(1)
	hs := httptest.NewServer(srv.handler())
	t.Cleanup(hs.Close)

	const spec = `{"program":"cmm","size":16,"procs":4}`
	first := acceptJob(t, hs.URL, spec)
	if v := waitForStatus(t, hs.URL, first); v.Status != "done" {
		t.Fatalf("solved job = %+v", v)
	}
	for i := 0; i < 5; i++ {
		if v := waitForStatus(t, hs.URL, acceptJob(t, hs.URL, spec)); v.Status != "done" {
			t.Fatalf("replayed job = %+v", v)
		}
	}
	srv.drain()
	wals, err := filepath.Glob(filepath.Join(dir, "job-*"))
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "job-"+first+".wal"); len(wals) != 1 || wals[0] != want {
		t.Fatalf("WAL files ever created: %v, want only %s", wals, want)
	}
	text := srv.reg.Snapshot().Text()
	for _, want := range []string{
		"sched_cache_hit_total 5", "paradigmd_wal_materialized_total 1", "paradigmd_programs_built_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "paradigmd_wal_gc_total") {
		t.Fatalf("retain-all collected a WAL:\n%s", text)
	}
}

// TestChaosKillRestartHot is TestChaosKillRestart for the jobs that have
// no WAL to resume from: every spec is solved once first, so that the
// burst that follows replays from the schedule cache, and the SIGKILL
// lands with that burst acknowledged and mostly still queued. The
// directory must hold no WAL at that moment — the journal alone carries
// the jobs over — and after the restart every acknowledged job must reach
// done with the oracle-validated crash-free digest.
func TestChaosKillRestartHot(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short")
	}
	// Two specs whose simulation takes some ten milliseconds, twenty times
	// a submit: the burst outruns the child's one worker, and the queue is
	// full when the kill lands.
	hot := []chaosJob{{"cmm", 128, 4}, {"cmm", 128, 16}}
	refs := chaosReferenceDigests(t, hot)
	dir := t.TempDir()
	base, child := startChaosChild(t, dir)
	body := func(cj chaosJob, tenant int) string {
		return fmt.Sprintf(`{"program":%q,"size":%d,"procs":%d,"tenant":"t%d"}`, cj.Program, cj.Size, cj.Procs, tenant)
	}
	ids := map[string]chaosJob{}
	for _, cj := range hot {
		id := acceptJob(t, base, body(cj, 0))
		if v := waitForStatus(t, base, id); v.Status != "done" || v.Digest != refs[cj] {
			t.Fatalf("priming job %v = %+v", cj, v)
		}
		ids[id] = cj
	}
	// A tenant per job keeps the burst from coalescing: each job is
	// queued and run on its own. A full queue answers 429; go on until
	// enough are acknowledged, then kill at once.
	const burst = 40
	for n := 0; n < burst; {
		cj := hot[n%len(hot)]
		resp := submitJob(t, base, body(cj, n+1))
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var acc struct{ ID string }
			if err := json.Unmarshal(raw, &acc); err != nil {
				t.Fatal(err)
			}
			ids[acc.ID] = cj
			n++
		case http.StatusTooManyRequests:
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("submit %v = %s: %s", cj, resp.Status, raw)
		}
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = child.Wait() // SIGKILL: non-zero by design
	if wals, _ := filepath.Glob(filepath.Join(dir, "job-*")); len(wals) != 0 {
		t.Fatalf("hot jobs left WALs at the kill: %v", wals)
	}

	base2, child2 := startChaosChild(t, dir)
	deadline := time.Now().Add(180 * time.Second)
	for {
		views := chaosListJobs(t, base2)
		if len(views) != len(ids) {
			t.Fatalf("restart lists %d jobs, acknowledged %d", len(views), len(ids))
		}
		done := 0
		for _, v := range views {
			switch v.Status {
			case "done":
				if v.Digest != refs[ids[v.ID]] {
					t.Fatalf("job %s (%v) digest = %q, want crash-free %q", v.ID, ids[v.ID], v.Digest, refs[ids[v.ID]])
				}
				done++
			case "failed":
				t.Fatalf("acknowledged job failed after restart: %+v", v)
			}
		}
		if done == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs incomplete after restart: %+v", views)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// The kill must have landed with hot jobs in flight, or this test
	// showed nothing; the restarted server solves each spec once more
	// (its caches died with the process) and replays the rest.
	recovered := chaosMetric(t, string(metricsText), "paradigmd_jobs_recovered_total")
	t.Logf("%d of %d acknowledged jobs were unfinished at the kill", recovered, len(ids))
	if recovered < 4 {
		t.Fatalf("only %d acknowledged jobs were unfinished at the kill, want >= 4\nmetrics:\n%s", recovered, metricsText)
	}
	if got := chaosMetric(t, string(metricsText), "paradigmd_wal_materialized_total"); got > len(hot) {
		t.Fatalf("%d WALs materialized after the restart, want at most one per spec", got)
	}
	if wals, _ := filepath.Glob(filepath.Join(dir, "job-*")); len(wals) != 0 {
		t.Fatalf("completed jobs left WALs behind: %v", wals)
	}
	if err := child2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := child2.Wait(); err != nil {
		t.Fatalf("graceful shutdown exited dirty: %v", err)
	}
}

// TestServiceMemoryFlat drives 3 000 jobs over 24 CMM specs through one
// server, journal and WAL directory included, and requires the live heap
// to grow by no more than 4 kB a job between job 1 000 and job 3 000: a
// finished job keeps its view, its schedule and a pointer to an interned
// program, and the journal keeps its records; the megabytes of simulated
// machine state a job used to pin are what this bound is far below. The
// first and the last job must still render their schedules.
func TestServiceMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("3000-job soak skipped in -short")
	}
	const (
		jobs      = 3000 // 125 batches of the 24 specs
		markAfter = 1000
		perJob    = 4 << 10
	)
	var specs []string
	for _, size := range []int{8, 12, 16, 20, 24, 28} {
		for _, procs := range []int{2, 4, 8, 16} {
			specs = append(specs, fmt.Sprintf(`{"program":"cmm","size":%d,"procs":%d}`, size, procs))
		}
	}
	srv, hs := testServer(t, 64, 2)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// One batch is every spec once: nothing in it coalesces, and it fits
	// the queue, so the loop waits on the server, not on a poll per job.
	var (
		ids    []string
		mark   uint64
		marked int
	)
	for len(ids) < jobs {
		for _, spec := range specs {
			ids = append(ids, acceptJob(t, hs.URL, spec))
		}
		srv.waitIdle(t)
		if marked == 0 && len(ids) >= markAfter {
			mark, marked = heap(), len(ids)
		}
	}
	end := heap()
	first, last := ids[0], ids[len(ids)-1]
	if v := waitForStatus(t, hs.URL, last); v.Status != "done" {
		t.Fatalf("job %s = %+v", last, v)
	}
	grown := int64(end) - int64(mark)
	after := len(ids) - marked
	t.Logf("live heap %d kB at the mark, %d kB after %d more jobs: %d B/job", mark>>10, end>>10, after, grown/int64(after))
	if grown > int64(after*perJob) {
		t.Fatalf("live heap grew %d B over %d jobs, more than %d B a job", grown, after, perJob)
	}
	for _, id := range []string{first, last} {
		resp, err := http.Get(hs.URL + "/jobs/" + id + "/schedule")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("schedule of job %s = %s (%d bytes)", id, resp.Status, len(body))
		}
	}
}

// waitIdle returns once every accepted job is terminal.
func (s *server) waitIdle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		s.mu.Lock()
		accepted := len(s.jobs)
		s.mu.Unlock()
		if int(s.completed()) == accepted {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs finished", s.completed(), accepted)
		}
		time.Sleep(time.Millisecond)
	}
}
