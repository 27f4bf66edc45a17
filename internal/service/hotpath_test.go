// Gates on what a hot job costs and what a finished job keeps: a job
// whose plan replays from the schedule cache writes no WAL, ever, and
// the server's heap does not grow with the results it has handed out.
package service

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Under retain-all nothing is ever collected, so the directory is a
// record of every WAL that existed at any point: after one solved job
// and five replayed ones it holds exactly the solved job's.
func TestServiceHotJobWritesNoWAL(t *testing.T) {
	dir := t.TempDir()
	srv, hs := testServer(t, Config{CheckpointDir: dir, QueueCap: 8, WALRetain: retainAll}, 1)

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
	srv.Drain()
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
	srv, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 64}, 2)
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
func (s *Server) waitIdle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		s.mu.Lock()
		accepted := len(s.jobs)
		s.mu.Unlock()
		if int(s.Completed()) == accepted {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs finished", s.Completed(), accepted)
		}
		time.Sleep(time.Millisecond)
	}
}
