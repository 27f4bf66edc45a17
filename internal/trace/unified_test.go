package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"paradigm/internal/obs"
)

func TestWriteUnifiedMergesEventTracks(t *testing.T) {
	p, s, r := tinyProgram(t)
	events := []obs.Event{
		// Out of order on purpose: the exporter must sort by intrinsic
		// coordinates, not arrival order.
		obs.SolverStage{StartIdx: 0, Stage: 1, Gap: 0.1, Phi: 0.8, Iters: 10, Evals: 20, Status: "converged"},
		obs.SolverStage{StartIdx: 0, Stage: 0, Gap: 1.0, Phi: 0.9, Iters: 12, Evals: 24, Status: "converged"},
		obs.PSARound{Node: 1, Continuous: 2.7, Rounded: 4, Final: 2, Clipped: true},
		obs.PSAPick{Node: 1, EST: 0.1, PST: 0.2, Start: 0.2, Finish: 0.5, Procs: 2},
		obs.Comm{Tag: "X", From: 0, To: 1, Bytes: 128, SendStart: 0.1, SendEnd: 0.12, NetReady: 0.13, RecvStart: 0.14, RecvEnd: 0.15},
	}
	var buf bytes.Buffer
	if err := WriteUnified(&buf, p.G, s, r, events); err != nil {
		t.Fatal(err)
	}
	var out parsed
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	pids := map[int]int{}
	phases := map[string]int{}
	for _, e := range out.TraceEvents {
		pids[e.Pid]++
		phases[e.Ph]++
	}
	for pid := pidPredicted; pid <= pidSolver; pid++ {
		if pids[pid] == 0 {
			t.Fatalf("no events on pid %d: %v", pid, pids)
		}
	}
	if phases["M"] != 4 {
		t.Fatalf("want 4 process_name metadata events, got %d", phases["M"])
	}
	if phases["C"] != 2 {
		t.Fatalf("want 2 solver counter samples, got %d", phases["C"])
	}
	if phases["i"] != 1 {
		t.Fatalf("want 1 PSA pick instant, got %d", phases["i"])
	}
	// The solver counter track must come out stage-sorted.
	var counterTs []float64
	for _, e := range out.TraceEvents {
		if e.Ph == "C" {
			counterTs = append(counterTs, e.Ts)
		}
	}
	if len(counterTs) == 2 && counterTs[0] > counterTs[1] {
		t.Fatalf("counter samples not stage-sorted: %v", counterTs)
	}
}

func TestWriteUnifiedNilEventsMatchesRunShape(t *testing.T) {
	p, s, r := tinyProgram(t)
	var uni, run bytes.Buffer
	if err := WriteUnified(&uni, p.G, s, r, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteRun(&run, p.G, s, r); err != nil {
		t.Fatal(err)
	}
	var u, w parsed
	if err := json.Unmarshal(uni.Bytes(), &u); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(run.Bytes(), &w); err != nil {
		t.Fatal(err)
	}
	// Identical occupancy slices; the unified form adds only the four
	// track-name metadata records.
	if got, want := len(u.TraceEvents), len(w.TraceEvents)+4; got != want {
		t.Fatalf("unified has %d events, want %d (run %d + 4 metadata)", got, want, len(w.TraceEvents))
	}
}

func TestWriteUnifiedRejectsMismatch(t *testing.T) {
	p, s, r := tinyProgram(t)
	r.NodeStart = r.NodeStart[:1]
	var buf bytes.Buffer
	if err := WriteUnified(&buf, p.G, s, r, nil); err == nil {
		t.Fatal("want mismatch error")
	}
}
