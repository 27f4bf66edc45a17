// Stage payload codecs: the JSON snapshots the pipeline commits at each
// stage boundary, with strict decoders that validate structure before
// the snapshot is trusted. Every decode failure wraps ErrCorrupt (the
// bytes are damaged) and every job-shape disagreement wraps ErrMismatch
// (the bytes are fine but belong to a different job) — callers never
// have to guess which happened. The MPMD program has no record: code
// generation is a pure function of the program and the schedule, so a
// resumed run regenerates it from the restored schedule.
//
// Bit-identical resume rests on two facts: Go's encoding/json marshals
// float64 in shortest-round-trip form (decode(encode(x)) == x exactly),
// and every stage snapshot below carries only plain exported data — no
// solver diagnostics, caches, or other state that could differ between
// the original and resumed processes.
package ckpt

import (
	"encoding/json"
	"fmt"
	"math"

	"paradigm/internal/alloc"
	"paradigm/internal/machine"
	"paradigm/internal/matrix"
	"paradigm/internal/sched"
	"paradigm/internal/trainsets"
)

// Meta identifies the job a log belongs to. It is committed first and
// validated on resume: a log replayed against a different program,
// machine, or system size fails with ErrMismatch instead of silently
// resuming the wrong run.
type Meta struct {
	Program string         `json:"program"`
	Procs   int            `json:"procs"`
	Nodes   int            `json:"nodes"`
	Machine machine.Params `json:"machine"`
}

// EncodeMeta marshals the job identity.
func EncodeMeta(m Meta) ([]byte, error) { return json.Marshal(m) }

// DecodeMeta unmarshals and sanity-checks a meta payload.
func DecodeMeta(data []byte) (Meta, error) {
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
	}
	if m.Procs < 1 || m.Nodes < 1 {
		return Meta{}, fmt.Errorf("%w: meta procs=%d nodes=%d", ErrCorrupt, m.Procs, m.Nodes)
	}
	return m, nil
}

// Check compares the stored identity against the job being resumed.
func (m Meta) Check(program string, procs, nodes int, mp machine.Params) error {
	if m.Program != program || m.Procs != procs || m.Nodes != nodes {
		return fmt.Errorf("%w: log is for %q (p=%d, %d nodes), resuming %q (p=%d, %d nodes)",
			ErrMismatch, m.Program, m.Procs, m.Nodes, program, procs, nodes)
	}
	if !m.Machine.Equal(mp) {
		return fmt.Errorf("%w: log is for machine %q, resuming on %q", ErrMismatch, m.Machine.Name, mp.Name)
	}
	return nil
}

// AllocState is the allocation-stage snapshot: the continuous vector and
// objective decomposition, without the solver's convergence diagnostics
// (iteration counts differ between a fresh solve and a resumed no-op,
// and nothing downstream reads them).
type AllocState struct {
	P   []float64 `json:"p"`
	Phi float64   `json:"phi"`
	Ap  float64   `json:"ap"`
	Cp  float64   `json:"cp"`
}

// EncodeAlloc snapshots an allocation result.
func EncodeAlloc(r alloc.Result) ([]byte, error) {
	return json.Marshal(AllocState{P: r.P, Phi: r.Phi, Ap: r.Ap, Cp: r.Cp})
}

// DecodeAlloc restores an allocation result for a graph with nodes
// nodes.
func DecodeAlloc(data []byte, nodes int) (alloc.Result, error) {
	var st AllocState
	if err := json.Unmarshal(data, &st); err != nil {
		return alloc.Result{}, fmt.Errorf("%w: alloc: %v", ErrCorrupt, err)
	}
	for _, v := range append([]float64{st.Phi, st.Ap, st.Cp}, st.P...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return alloc.Result{}, fmt.Errorf("%w: alloc: non-finite value", ErrCorrupt)
		}
	}
	if len(st.P) != nodes {
		return alloc.Result{}, fmt.Errorf("%w: alloc vector has %d entries for %d nodes",
			ErrMismatch, len(st.P), nodes)
	}
	return alloc.Result{P: st.P, Phi: st.Phi, Ap: st.Ap, Cp: st.Cp}, nil
}

// EncodeSchedule snapshots a PSA schedule (all fields exported: direct).
func EncodeSchedule(s *sched.Schedule) ([]byte, error) { return json.Marshal(s) }

// DecodeSchedule restores a schedule for a graph with nodes nodes on
// procs processors.
func DecodeSchedule(data []byte, nodes, procs int) (*sched.Schedule, error) {
	var s sched.Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%w: sched: %v", ErrCorrupt, err)
	}
	if len(s.Entries) != nodes || len(s.Alloc) != nodes {
		return nil, fmt.Errorf("%w: schedule covers %d nodes (alloc %d), resuming %d",
			ErrMismatch, len(s.Entries), len(s.Alloc), nodes)
	}
	if s.ProcsTotal != procs {
		return nil, fmt.Errorf("%w: schedule is for %d processors, resuming %d",
			ErrMismatch, s.ProcsTotal, procs)
	}
	for i, e := range s.Entries {
		for _, p := range e.Procs {
			if p < 0 || p >= procs {
				return nil, fmt.Errorf("%w: sched entry %d uses processor %d outside [0,%d)",
					ErrCorrupt, i, p, procs)
			}
		}
	}
	return &s, nil
}

// EncodeCalibration snapshots a calibration fit.
func EncodeCalibration(s trainsets.Snapshot) ([]byte, error) { return json.Marshal(s) }

// DecodeCalibration restores a calibration snapshot for machine mp.
func DecodeCalibration(data []byte, mp machine.Params) (trainsets.Snapshot, error) {
	var s trainsets.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return trainsets.Snapshot{}, fmt.Errorf("%w: calibrate: %v", ErrCorrupt, err)
	}
	if len(s.ProcSweep) == 0 {
		return trainsets.Snapshot{}, fmt.Errorf("%w: calibrate: empty processor sweep", ErrCorrupt)
	}
	if !s.Machine.Equal(mp) {
		return trainsets.Snapshot{}, fmt.Errorf("%w: calibration is for machine %q, resuming on %q",
			ErrMismatch, s.Machine.Name, mp.Name)
	}
	return s, nil
}

// SalvageState is the partial-sim-state snapshot one recovery attempt
// commits: which processors died, and every array restored bit-for-bit
// from surviving blocks via the CompletedFrontier/SalvageArray
// machinery. On a resumed run the recomputed salvage's encoding is
// compared with this record byte for byte — a divergence means
// non-deterministic recovery and fails loudly.
type SalvageState struct {
	Attempt   int                       `json:"attempt"`
	Survivors int                       `json:"survivors"`
	Failed    []int                     `json:"failed"`
	Arrays    map[string]*matrix.Matrix `json:"arrays"`
}

// EncodeSalvage snapshots one recovery attempt's salvage.
func EncodeSalvage(s SalvageState) ([]byte, error) { return json.Marshal(s) }

// DoneState records the completed run's headline numbers. A resumed run
// that finds a done record validates its own result against it instead
// of re-committing — the final guard that resume was bit-identical.
type DoneState struct {
	Makespan     float64 `json:"makespan"`
	Messages     int     `json:"messages"`
	NetworkBytes int     `json:"network_bytes"`
	Recovered    bool    `json:"recovered"`
	Attempts     int     `json:"attempts"`
}

// EncodeDone snapshots the run outcome.
func EncodeDone(d DoneState) ([]byte, error) { return json.Marshal(d) }

// DecodeDone restores a run outcome.
func DecodeDone(data []byte) (DoneState, error) {
	var d DoneState
	if err := json.Unmarshal(data, &d); err != nil {
		return DoneState{}, fmt.Errorf("%w: done: %v", ErrCorrupt, err)
	}
	return d, nil
}
