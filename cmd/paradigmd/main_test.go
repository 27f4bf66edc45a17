package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paradigm/internal/service"
)

// -pprof serves the profile endpoints from a handler of its own; the job
// API never does.
func TestPprofOnItsOwnHandler(t *testing.T) {
	mach, err := machineBackend("cm5")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(mach, service.Config{QueueCap: 1, WALRetain: "failed"})
	if err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(srv.Handler())
	t.Cleanup(api.Close)
	prof := httptest.NewServer(pprofHandler())
	t.Cleanup(prof.Close)
	for url, want := range map[string]int{
		prof.URL + "/debug/pprof/cmdline":      http.StatusOK,
		prof.URL + "/debug/pprof/heap?debug=1": http.StatusOK,
		api.URL + "/debug/pprof/cmdline":       http.StatusNotFound,
		api.URL + "/debug/pprof/":              http.StatusNotFound,
		prof.URL + "/jobs":                     http.StatusNotFound,
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %s, want %d", url, resp.Status, want)
		}
	}
}

func submitJob(t *testing.T, base, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

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
func waitForStatus(t *testing.T, base, id string) service.JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view service.JobView
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
