package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"paradigm"
	"paradigm/internal/oracle"
	"paradigm/internal/service"
)

// TestParadigmdChaosChild is the re-exec target: a real paradigmd
// process (one worker, durable journal) that serves until killed.
// It is a no-op unless the chaos parent spawned it.
func TestParadigmdChaosChild(t *testing.T) {
	if os.Getenv("PARADIGMD_CHAOS_CHILD") != "1" {
		t.Skip("chaos re-exec target only")
	}
	dir := os.Getenv("PARADIGMD_CHAOS_DIR")
	if err := run(runOpts{
		addr: "127.0.0.1:0", machine: "cm5", workers: 1,
		svc: service.Config{CheckpointDir: dir, QueueCap: 16, WALRetain: "failed"},
	}); err != nil {
		t.Fatal(err)
	}
}

// startChaosChild re-execs the test binary as a paradigmd subprocess
// over dir and returns its base URL once the listener is up.
func startChaosChild(t *testing.T, dir string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestParadigmdChaosChild$", "-test.v")
	cmd.Env = append(os.Environ(), "PARADIGMD_CHAOS_CHILD=1", "PARADIGMD_CHAOS_DIR="+dir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A test that fails between start and shutdown must not leave the
	// child serving; killing one that already exited is harmless.
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "paradigmd listening on "); ok {
				if addr, _, ok := strings.Cut(rest, " ("); ok {
					select {
					case addrCh <- addr:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, cmd
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("chaos child never announced its listener")
		return "", nil
	}
}

type chaosJob struct {
	Program string
	Size    int
	Procs   int
}

// chaosJobs mixes programs and system sizes (p ∈ {4, 16}), with
// duplicates to exercise the exact-replay cache across the restart and
// enough depth that the SIGKILL always lands with at least four
// acknowledged jobs in flight. A duplicate is a schedule-cache hit that
// finishes right behind its leader, so the depth is the leaders': the
// one worker must still be inside them when the client, having
// submitted all ten, first sees a job done. Measured pipeline times on a
// 2-core box are ≈ 13 ms for CMM-256, ≈ 7 ms for Strassen-256 and
// ≈ 2 ms for CMM-128, against 2–10 ms to submit the ten: the worker
// needs ≈ 45 ms to finish the five leaders and two duplicates that
// would leave fewer than four in flight.
var chaosJobs = []chaosJob{
	{"cmm", 256, 4},
	{"strassen", 256, 16},
	{"cmm", 256, 16},
	{"strassen", 256, 4},
	{"cmm", 128, 4},
	{"cmm", 256, 4},
	{"strassen", 256, 16},
	{"cmm", 128, 4},
	{"cmm", 256, 16},
	{"strassen", 256, 4},
}

// chaosReferenceDigests runs every distinct job of the list crash-free
// through the library, validates each trace with the simulation oracle,
// and returns the digest each service job must reproduce.
func chaosReferenceDigests(t *testing.T, jobs []chaosJob) map[chaosJob]string {
	t.Helper()
	cal, err := paradigm.CalibrateContext(context.Background(), paradigm.NewCM5(64))
	if err != nil {
		t.Fatal(err)
	}
	refs := map[chaosJob]string{}
	for _, cj := range jobs {
		if _, ok := refs[cj]; ok {
			continue
		}
		var p *paradigm.Program
		switch cj.Program {
		case "cmm":
			p, err = paradigm.ComplexMatMul(cj.Size, cal)
		case "strassen":
			p, err = paradigm.Strassen(cj.Size, cal)
		}
		if err != nil {
			t.Fatal(err)
		}
		tr := &oracle.Trace{}
		res, err := paradigm.RunContext(context.Background(), p, paradigm.NewCM5(cj.Procs), cal, cj.Procs,
			paradigm.WithObserver(tr))
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.CheckRun(p.G, tr, res.Sim); err != nil {
			t.Fatalf("oracle rejected crash-free %v: %v", cj, err)
		}
		refs[cj] = res.Digest()
	}
	return refs
}

func chaosListJobs(t *testing.T, base string) []service.JobView {
	t.Helper()
	resp, err := http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	return views
}

// chaosMetric reads one counter from the registry's text form
// ("counter <name> <value>").
func chaosMetric(t *testing.T, metrics, name string) int {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[1] == name {
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	return 0
}

// TestChaosKillRestart is the service-level crash suite: SIGKILL a
// paradigmd with acknowledged jobs in flight, restart it on the same
// checkpoint directory, and require every acknowledged job to complete
// with a result byte-identical (by digest) to an oracle-validated
// crash-free run — finished jobs reloaded from the journal, unfinished
// ones recovered and resumed from their WALs.
func TestChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short")
	}
	refs := chaosReferenceDigests(t, chaosJobs)
	dir := t.TempDir()

	base, child := startChaosChild(t, dir)
	ids := make(map[string]chaosJob, len(chaosJobs))
	for _, cj := range chaosJobs {
		body := fmt.Sprintf(`{"program":%q,"size":%d,"procs":%d}`, cj.Program, cj.Size, cj.Procs)
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %v = %s: %s", cj, resp.Status, raw)
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &acc); err != nil {
			t.Fatal(err)
		}
		ids[acc.ID] = cj
	}

	// Wait for the first completion, then SIGKILL with the rest — at
	// least four acknowledged jobs — still in flight.
	deadline := time.Now().Add(120 * time.Second)
	for {
		views := chaosListJobs(t, base)
		done := 0
		for _, v := range views {
			if v.Status == "done" {
				done++
			}
			if v.Status == "failed" {
				t.Fatalf("chaos job failed before the kill: %+v", v)
			}
		}
		if done >= 1 {
			if inflight := len(views) - done; inflight < 4 {
				t.Fatalf("only %d jobs in flight at kill time, want >= 4", inflight)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no job completed before the kill deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = child.Wait() // SIGKILL: non-zero by design

	// Restart over the same directory: the journal replays, finished
	// jobs reload, unfinished ones re-enqueue and resume.
	base2, child2 := startChaosChild(t, dir)
	deadline = time.Now().Add(180 * time.Second)
	var views []service.JobView
	for {
		views = chaosListJobs(t, base2)
		if len(views) != len(chaosJobs) {
			t.Fatalf("restart lists %d jobs, acknowledged %d", len(views), len(chaosJobs))
		}
		done := 0
		for _, v := range views {
			switch v.Status {
			case "done":
				done++
			case "failed":
				t.Fatalf("acknowledged job failed after restart: %+v", v)
			}
		}
		if done == len(chaosJobs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs incomplete after restart: %+v", views)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Byte-identity: every acknowledged job's digest equals the
	// oracle-validated crash-free reference for that job.
	for _, v := range views {
		cj, ok := ids[v.ID]
		if !ok {
			t.Fatalf("restart invented job %s", v.ID)
		}
		if v.Digest == "" || v.Digest != refs[cj] {
			t.Fatalf("job %s (%v) digest = %q, want crash-free %q", v.ID, cj, v.Digest, refs[cj])
		}
	}

	// Accounting: every acknowledged job was either reloaded finished or
	// recovered unfinished, and the split matches the schedule endpoint
	// (reloaded results keep their digest but not their rendered
	// schedule).
	resp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	reloaded := chaosMetric(t, string(metricsText), "paradigmd_jobs_reloaded_total")
	recovered := chaosMetric(t, string(metricsText), "paradigmd_jobs_recovered_total")
	if reloaded < 1 || recovered < 1 || reloaded+recovered != len(chaosJobs) {
		t.Fatalf("reloaded %d + recovered %d, want a split of %d with both sides non-empty\nmetrics:\n%s",
			reloaded, recovered, len(chaosJobs), metricsText)
	}
	gone, served := 0, 0
	for _, v := range views {
		resp, err := http.Get(base2 + "/jobs/" + v.ID + "/schedule")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusGone:
			gone++
		case http.StatusOK:
			if len(body) == 0 {
				t.Fatalf("job %s served an empty schedule", v.ID)
			}
			served++
		default:
			t.Fatalf("schedule for %s = %s", v.ID, resp.Status)
		}
	}
	if gone != reloaded || served != recovered {
		t.Fatalf("schedules: %d gone / %d served, want %d / %d", gone, served, reloaded, recovered)
	}

	// The journal has no lag, health is back to ok, and the completed
	// jobs' WALs were collected — only the journal itself remains.
	resp, err = http.Get(base2 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health service.HealthView
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.State != "ok" || health.JournalLag != 0 || health.RecoveredPending != 0 {
		t.Fatalf("final healthz = %+v, want ok with empty backlog", health)
	}
	wals, err := filepath.Glob(filepath.Join(dir, "job-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(wals) != 0 {
		t.Fatalf("completed jobs left WALs behind: %v", wals)
	}

	// Graceful shutdown drains cleanly.
	if err := child2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := child2.Wait(); err != nil {
		t.Fatalf("graceful shutdown exited dirty: %v", err)
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
