package service

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// Each read endpoint answers GET only: any other method is refused with
// 405 and an Allow header, never served as if it were a GET.
func TestServiceReadEndpointsRefuseOtherMethods(t *testing.T) {
	_, hs := testServer(t, Config{CheckpointDir: t.TempDir(), QueueCap: 4}, 1)
	id := acceptJob(t, hs.URL, `{"program":"cmm","size":16,"procs":4}`)
	if v := waitForStatus(t, hs.URL, id); v.Status != "done" {
		t.Fatalf("job = %+v", v)
	}
	for _, c := range []struct{ method, path string }{
		{http.MethodDelete, "/jobs"},
		{http.MethodPut, "/jobs"},
		{http.MethodDelete, "/jobs/" + id},
		{http.MethodPost, "/jobs/" + id},
		{http.MethodPut, "/jobs/" + id + "/schedule"},
		{http.MethodPost, "/jobs/" + id + "/schedule"},
		{http.MethodPost, "/metrics"},
		{http.MethodPost, "/healthz"},
	} {
		req, err := http.NewRequest(c.method, hs.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || !strings.Contains(resp.Header.Get("Allow"), http.MethodGet) {
			t.Errorf("%s %s = %s (Allow %q), want 405 allowing GET", c.method, c.path, resp.Status, resp.Header.Get("Allow"))
		}
	}
}

// A stage budget no stage can meet fails the job in its first stage with
// a typed budget error; the failure is journaled, so a restarted server
// reloads the job as failed with the same error.
func TestServiceStageBudgetFailsJob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CheckpointDir: dir, QueueCap: 4, StageBudget: time.Nanosecond}
	srv, hs := testServer(t, cfg, 1)
	id := acceptJob(t, hs.URL, `{"program":"cmm","size":16,"procs":4}`)
	const want = "allocate stage exceeded its 1ns budget"
	if v := waitForStatus(t, hs.URL, id); v.Status != "failed" || !strings.Contains(v.Error, want) {
		t.Fatalf("job = %+v, want failed with %q", v, want)
	}
	srv.Drain()

	srv2, hs2 := testServer(t, cfg, 0)
	if v, code := getView(t, hs2.URL, id, ""); code != http.StatusOK || v.Status != "failed" || !strings.Contains(v.Error, want) {
		t.Fatalf("reloaded job = %d %+v, want failed with %q", code, v, want)
	}
	if srv2.Backlog() != 0 {
		t.Fatalf("reloaded a failed job into the backlog: %d pending", srv2.Backlog())
	}
}
