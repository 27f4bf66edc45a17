// Package trace exports a pipeline run in the Chrome Trace Event format
// (the JSON consumed by chrome://tracing and Perfetto), so predicted and
// actual executions can be inspected next to each other: the PSA
// schedule and the simulated run on one time axis, one track per
// processor and one complete event per (node, processor) occupancy,
// merged with the pipeline's structured observability events — the
// solver's convergence as a counter track, the PSA's decisions as
// instants on the predicted timeline, and every simulated message as a
// slice on a communication track.
//
// Events may arrive in worker-pool emission order (calibration sweeps
// run concurrently), so every track sorts by the events' intrinsic
// coordinates before encoding: the export is byte-deterministic for a
// deterministic pipeline run.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"paradigm/internal/mdg"
	"paradigm/internal/obs"
	"paradigm/internal/sched"
	"paradigm/internal/sim"
)

// event is one Chrome trace event (the "X" complete-event form).
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// file is the top-level trace container.
type file struct {
	TraceEvents []event `json:"traceEvents"`
	DisplayUnit string  `json:"displayTimeUnit"`
	// OtherData carries run-level annotations (Chrome trace format's
	// free-form metadata object); omitted when empty so historical
	// exports stay byte-identical.
	OtherData map[string]string `json:"otherData,omitempty"`
}

const secToUs = 1e6

// Process ids of the unified trace.
const (
	pidPredicted = 0 // the PSA schedule (model time)
	pidActual    = 1 // the simulated run (simulated time)
	pidComm      = 2 // per-message traffic, one row per receiving processor
	pidSolver    = 3 // solver convergence, one counter track per start
)

// Meta carries run-level annotations into the trace file's metadata
// object.
type Meta struct {
	// Machine names the machine model the run targeted (e.g. "CM5",
	// "Paragon-memcap8"); empty omits the annotation.
	Machine string
	// MachineKind is the backend family ("trained" or "analytical");
	// empty omits the annotation.
	MachineKind string
}

// WriteUnified exports the schedule, the simulated run, and the recorded
// pipeline events as one trace file, with meta's run-level annotations.
// events may be nil: the file then holds the four track-name records and
// the occupancy slices alone. Zero-length occupancies (the START/STOP
// dummies) are omitted.
func WriteUnified(w io.Writer, g *mdg.Graph, s *sched.Schedule, r *sim.Result, events []obs.Event, meta Meta) error {
	if len(r.NodeStart) != g.NumNodes() || len(r.NodeFinish) != g.NumNodes() {
		return fmt.Errorf("trace: run covers %d/%d nodes, graph has %d", len(r.NodeStart), len(r.NodeFinish), g.NumNodes())
	}
	if len(s.Entries) != g.NumNodes() {
		return fmt.Errorf("trace: schedule covers %d nodes, graph has %d", len(s.Entries), g.NumNodes())
	}
	f := file{DisplayUnit: "ms"}
	if meta.Machine != "" {
		f.OtherData = map[string]string{"machine": meta.Machine}
		if meta.MachineKind != "" {
			f.OtherData["machine_kind"] = meta.MachineKind
		}
	}

	// Named process tracks so Perfetto labels the pid groups.
	for pid, name := range map[int]string{
		pidPredicted: "predicted (PSA schedule)",
		pidActual:    "actual (simulated)",
		pidComm:      "comm (messages)",
		pidSolver:    "solver (interior point)",
	} {
		f.TraceEvents = append(f.TraceEvents, event{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	sort.Slice(f.TraceEvents, func(a, b int) bool { return f.TraceEvents[a].Pid < f.TraceEvents[b].Pid })

	// Predicted and actual node occupancy on a shared time axis.
	add := func(pid int, cat, name string, tid int, start, finish float64, args map[string]any) {
		if finish <= start {
			return
		}
		f.TraceEvents = append(f.TraceEvents, event{
			Name: name, Cat: cat, Ph: "X",
			Ts: start * secToUs, Dur: (finish - start) * secToUs,
			Pid: pid, Tid: tid, Args: args,
		})
	}
	// PSA decisions index by node; collect them first so the predicted
	// slices can carry the rounding context.
	rounds := map[int]obs.PSARound{}
	var picks []obs.PSAPick
	var comms []obs.Comm
	var stages []obs.SolverStage
	for _, e := range events {
		switch ev := e.(type) {
		case obs.PSARound:
			rounds[ev.Node] = ev
		case obs.PSAPick:
			picks = append(picks, ev)
		case obs.Comm:
			comms = append(comms, ev)
		case obs.SolverStage:
			stages = append(stages, ev)
		}
	}

	for i, e := range s.Entries {
		name := g.Nodes[i].Name
		if name == "" {
			name = fmt.Sprintf("n%d", i)
		}
		args := map[string]any{
			"node":  fmt.Sprintf("%d", i),
			"procs": fmt.Sprintf("%d", len(e.Procs)),
		}
		if rd, ok := rounds[i]; ok {
			args["p_continuous"] = fmt.Sprintf("%.3f", rd.Continuous)
			args["p_rounded"] = fmt.Sprintf("%d", rd.Rounded)
			if rd.Clipped {
				args["pb_clipped"] = "true"
			}
		}
		for _, p := range e.Procs {
			add(pidPredicted, "predicted", name, p, e.Start, e.Finish, args)
			add(pidActual, "actual", name, p, r.NodeStart[i], r.NodeFinish[i], args)
		}
	}

	// PSA picks: instants on the predicted timeline at the pick's start,
	// on the row of the first granted processor (tid 0 keeps rows stable
	// when the pick context is unknown).
	sort.Slice(picks, func(a, b int) bool {
		if picks[a].Start != picks[b].Start {
			return picks[a].Start < picks[b].Start
		}
		return picks[a].Node < picks[b].Node
	})
	for _, p := range picks {
		tid := 0
		if p.Node < len(s.Entries) && len(s.Entries[p.Node].Procs) > 0 {
			tid = s.Entries[p.Node].Procs[0]
		}
		f.TraceEvents = append(f.TraceEvents, event{
			Name: fmt.Sprintf("pick n%d", p.Node), Cat: "psa", Ph: "i",
			Ts: p.Start * secToUs, Pid: pidPredicted, Tid: tid,
			Args: map[string]any{
				"est":   fmt.Sprintf("%.6f", p.EST),
				"pst":   fmt.Sprintf("%.6f", p.PST),
				"wait":  fmt.Sprintf("%.6f", p.Start-p.EST),
				"procs": fmt.Sprintf("%d", p.Procs),
			},
		})
	}

	// Per-message comm slices: sender-to-receiver latency on the
	// receiving processor's row of the comm track.
	sort.Slice(comms, func(a, b int) bool {
		if comms[a].SendStart != comms[b].SendStart {
			return comms[a].SendStart < comms[b].SendStart
		}
		return comms[a].Tag < comms[b].Tag
	})
	for _, c := range comms {
		f.TraceEvents = append(f.TraceEvents, event{
			Name: c.Tag, Cat: "comm", Ph: "X",
			Ts: c.SendStart * secToUs, Dur: (c.RecvEnd - c.SendStart) * secToUs,
			Pid: pidComm, Tid: c.To,
			Args: map[string]any{
				"from":       fmt.Sprintf("%d", c.From),
				"to":         fmt.Sprintf("%d", c.To),
				"bytes":      fmt.Sprintf("%d", c.Bytes),
				"net_ready":  fmt.Sprintf("%.6f", c.NetReady),
				"recv_start": fmt.Sprintf("%.6f", c.RecvStart),
			},
		})
	}

	// Solver convergence: one counter track per start index (the
	// allocator solves from one, StartIdx 0) carrying the bound on Φ and
	// the duality gap, sampled at the interior-point iteration index (the
	// solve has no wall-clock of its own — iteration order is its time
	// axis).
	sort.Slice(stages, func(a, b int) bool {
		if stages[a].StartIdx != stages[b].StartIdx {
			return stages[a].StartIdx < stages[b].StartIdx
		}
		return stages[a].Stage < stages[b].Stage
	})
	for _, st := range stages {
		f.TraceEvents = append(f.TraceEvents, event{
			Name: fmt.Sprintf("phi start%d", st.StartIdx), Cat: "solver", Ph: "C",
			Ts: float64(st.Stage), Pid: pidSolver, Tid: st.StartIdx,
			Args: map[string]any{
				"phi": st.Phi,
				"gap": st.Gap,
			},
		})
	}

	return json.NewEncoder(w).Encode(f)
}
