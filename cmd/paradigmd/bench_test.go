package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"paradigm"
)

// benchSubmit measures the accept path — HTTP POST through admission,
// registration, and the 202 — with zero workers so no job ever runs.
// dir == "" runs without durability; otherwise every accept commits to
// the job journal first, and the delta between the two benchmarks is
// the journal's submit-path overhead (the PR 8 acceptance bound).
func benchSubmit(b *testing.B, dir string) {
	cal, err := paradigm.Calibrate(paradigm.NewCM5(64))
	if err != nil {
		b.Fatal(err)
	}
	mach := paradigm.NewTrainedMachine(cal)
	srv, err := newServer(mach, serverConfig{
		ckptDir: dir, queueCap: b.N + 1, walRetain: retainFailed, retries: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.handler())
	defer hs.Close()
	const body = `{"program":"cmm","size":16,"procs":4}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit = %s", resp.Status)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func BenchmarkSubmitNoJournal(b *testing.B)   { benchSubmit(b, "") }
func BenchmarkSubmitWithJournal(b *testing.B) { benchSubmit(b, b.TempDir()) }
