package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/codegen"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/obs"
	"paradigm/internal/prog"
	"paradigm/internal/sched"
	"paradigm/internal/sim"
	"paradigm/internal/trainsets"
)

// tinyProgram builds a 2-node program with a real transfer.
func tinyProgram(t *testing.T) (*prog.Program, *sched.Schedule, *sim.Result) {
	t.Helper()
	cal, err := trainsets.Calibrate(machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	b := prog.NewBuilder("tiny")
	initK := kernels.Kernel{Op: kernels.OpInit, M: 16, N: 16,
		Init: kernels.Elementwise(func(i, j int) float64 { return float64(i + j) })}
	addK := kernels.Kernel{Op: kernels.OpAdd, M: 16, N: 16}
	lpI, _ := cal.Loop("i", initK)
	lpA, _ := cal.Loop("a", addK)
	b.AddNode("src", prog.NodeSpec{Kernel: initK, Output: "X", Axis: dist.ByRow}, lpI)
	b.AddNode("dbl", prog.NodeSpec{Kernel: addK, Inputs: []string{"X", "X"}, Output: "Y", Axis: dist.ByCol}, lpA)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	model := cal.Model()
	ar, err := alloc.Solve(p.G, model, 4, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(p.G, model, ar.P, 4, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := codegen.Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(p, streams, machine.CM5(4))
	if err != nil {
		t.Fatal(err)
	}
	return p, s, r
}

// parsed mirrors the trace file structure for decoding in tests.
type parsed struct {
	OtherData   map[string]string `json:"otherData"`
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
}

// decode writes the trace of (p, s, r) with the given events and meta
// and parses it back.
func decode(t *testing.T, p *prog.Program, s *sched.Schedule, r *sim.Result, events []obs.Event, meta Meta) parsed {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteUnified(&buf, p.G, s, r, events, meta); err != nil {
		t.Fatal(err)
	}
	var out parsed
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWriteUnifiedOccupancySlices(t *testing.T) {
	p, s, r := tinyProgram(t)
	out := decode(t, p, s, r, nil, Meta{})
	names := map[string]bool{}
	for _, e := range out.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Ph != "X" || e.Dur <= 0 || e.Ts < 0 {
			t.Fatalf("bad event %+v", e)
		}
		if (e.Pid == pidPredicted) != (e.Cat == "predicted") {
			t.Fatalf("predicted slices belong on pid %d: %+v", pidPredicted, e)
		}
		names[e.Name] = true
	}
	if !names["src"] || !names["dbl"] {
		t.Fatalf("missing node events: %v", names)
	}
	// Dummy START/STOP (zero duration) must be filtered.
	if names["START"] || names["STOP"] {
		t.Fatal("zero-length dummies should be omitted")
	}
}

func TestWriteUnifiedAlignsPredictionAndActual(t *testing.T) {
	p, s, r := tinyProgram(t)
	out := decode(t, p, s, r, nil, Meta{})
	pids := map[int]map[string]int{pidPredicted: {}, pidActual: {}}
	for _, e := range out.TraceEvents {
		if e.Ph == "X" {
			pids[e.Pid][e.Name]++
		}
	}
	if len(pids[pidPredicted]) == 0 {
		t.Fatal("no predicted slices")
	}
	// Every node occupies the same processors in both tracks.
	for name, n := range pids[pidPredicted] {
		if pids[pidActual][name] != n {
			t.Fatalf("node %s: %d predicted slices, %d actual", name, n, pids[pidActual][name])
		}
	}
}

func TestWriteUnifiedOmitsZeroLength(t *testing.T) {
	// A run of only zero-duration occupancies yields a valid trace of
	// the four track-name records.
	p, s, r := tinyProgram(t)
	for i := range s.Entries {
		s.Entries[i].Finish = s.Entries[i].Start
		r.NodeFinish[i] = r.NodeStart[i]
	}
	out := decode(t, p, s, r, nil, Meta{})
	for _, e := range out.TraceEvents {
		if e.Ph != "M" {
			t.Fatalf("zero-length occupancy exported: %+v", e)
		}
	}
	if len(out.TraceEvents) != 4 {
		t.Fatalf("want the 4 track-name records, got %d events", len(out.TraceEvents))
	}
}

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
	out := decode(t, p, s, r, events, Meta{})
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
	out := decode(t, p, s, r, nil, Meta{})
	// Without events the file is the track-name records plus the
	// predicted and actual occupancy slices: no instants, counters,
	// message slices or run annotations.
	for _, e := range out.TraceEvents {
		if e.Ph != "M" && (e.Ph != "X" || e.Pid > pidActual) {
			t.Fatalf("event beyond the run's shape: %+v", e)
		}
	}
	if out.OtherData != nil {
		t.Fatalf("zero Meta wrote annotations: %v", out.OtherData)
	}
	out = decode(t, p, s, r, nil, Meta{Machine: "CM5", MachineKind: "trained"})
	if out.OtherData["machine"] != "CM5" || out.OtherData["machine_kind"] != "trained" {
		t.Fatalf("Meta annotations = %v", out.OtherData)
	}
}

func TestWriteUnifiedRejectsMismatch(t *testing.T) {
	p, s, r := tinyProgram(t)
	r.NodeStart = r.NodeStart[:1]
	var buf bytes.Buffer
	if err := WriteUnified(&buf, p.G, s, r, nil, Meta{}); err == nil {
		t.Fatal("want mismatch error")
	}
}

// TestWriteRunRejectsMismatch checks that a run's finish times or a
// schedule that do not cover the graph are refused rather than indexed
// past their end.
func TestWriteRunRejectsMismatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(*sched.Schedule, *sim.Result)
	}{
		{"short_finish", func(_ *sched.Schedule, r *sim.Result) { r.NodeFinish = r.NodeFinish[:1] }},
		{"short_schedule", func(s *sched.Schedule, _ *sim.Result) { s.Entries = s.Entries[:1] }},
	} {
		p, s, r := tinyProgram(t)
		tc.mangle(s, r)
		var buf bytes.Buffer
		if err := WriteUnified(&buf, p.G, s, r, nil, Meta{}); err == nil {
			t.Fatalf("%s: want mismatch error", tc.name)
		}
	}
}
