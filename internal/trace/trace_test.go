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

func TestWriteScheduleProducesValidJSON(t *testing.T) {
	p, s, _ := tinyProgram(t)
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, p.G, s); err != nil {
		t.Fatal(err)
	}
	var out parsed
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	names := map[string]bool{}
	for _, e := range out.TraceEvents {
		if e.Ph != "X" || e.Dur <= 0 || e.Ts < 0 {
			t.Fatalf("bad event %+v", e)
		}
		if e.Pid != 0 || e.Cat != "predicted" {
			t.Fatalf("schedule events must be pid 0 predicted: %+v", e)
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

func TestWriteRunAlignsPredictionAndActual(t *testing.T) {
	p, s, r := tinyProgram(t)
	var buf bytes.Buffer
	if err := WriteRun(&buf, p.G, s, r); err != nil {
		t.Fatal(err)
	}
	var out parsed
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	pids := map[int]int{}
	for _, e := range out.TraceEvents {
		pids[e.Pid]++
	}
	if pids[0] == 0 || pids[1] == 0 {
		t.Fatalf("want events on both pid 0 (predicted) and pid 1 (actual): %v", pids)
	}
}

func TestWriteRunRejectsMismatch(t *testing.T) {
	p, s, r := tinyProgram(t)
	r.NodeStart = r.NodeStart[:1]
	var buf bytes.Buffer
	if err := WriteRun(&buf, p.G, s, r); err == nil {
		t.Fatal("want mismatch error")
	}
}

func TestWriteScheduleEmpty(t *testing.T) {
	// A schedule of only zero-duration dummies yields a valid trace with
	// no events.
	_, s, _ := tinyProgram(t)
	for i := range s.Entries {
		s.Entries[i].Finish = s.Entries[i].Start
	}
	var buf bytes.Buffer
	p2, _, _ := tinyProgram(t)
	if err := WriteSchedule(&buf, p2.G, s); err != nil {
		t.Fatal(err)
	}
	var out parsed
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) != 0 {
		t.Fatalf("expected no events, got %d", len(out.TraceEvents))
	}
}
