// JSON machine specifications. A Spec is the durable, user-editable
// form of a machine profile — explicit snake_case fields, strict
// decoding (unknown fields are errors, so a typo cannot silently zero a
// constant), validation with typed errors, and a canonical encoding that
// the committed database round-trips through byte-identically. FromSpec
// serves one through the analytical backend.
package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"paradigm/internal/costmodel"
	"paradigm/internal/errs"
)

// TransferSpec optionally pins an explicit transfer surface in a spec —
// for machines whose fitted parameters are known (e.g. from a real
// calibration run) and should override the analytical derivation.
type TransferSpec struct {
	Tss float64 `json:"t_ss"`
	Tps float64 `json:"t_ps"`
	Tsr float64 `json:"t_sr"`
	Tpr float64 `json:"t_pr"`
	Tn  float64 `json:"t_n"`
}

// Spec is the JSON form of a machine profile. All times are seconds,
// capacities bytes.
type Spec struct {
	Name  string `json:"name"`
	Procs int    `json:"procs"`

	SendStartup      float64 `json:"send_startup"`
	SendPerByte      float64 `json:"send_per_byte"`
	RecvStartup      float64 `json:"recv_startup"`
	RecvPerByte      float64 `json:"recv_per_byte"`
	NetPerByte       float64 `json:"net_per_byte"`
	MsgMatchOverhead float64 `json:"msg_match_overhead"`
	CopyPerByte      float64 `json:"copy_per_byte"`

	FMATime      float64 `json:"fma_time"`
	AddElemTime  float64 `json:"add_elem_time"`
	InitElemTime float64 `json:"init_elem_time"`
	LoopOverhead float64 `json:"loop_overhead"`

	CollStartup float64 `json:"coll_startup"`
	CollPerByte float64 `json:"coll_per_byte"`

	JitterFrac float64 `json:"jitter_frac,omitempty"`
	JitterSeed uint64  `json:"jitter_seed,omitempty"`

	// Speeds are per-processor relative speed multipliers (empty:
	// homogeneous); MemCapacity are per-processor memory bounds in bytes
	// (empty: unbounded).
	Speeds      []float64 `json:"speeds,omitempty"`
	MemCapacity []int64   `json:"mem_capacity,omitempty"`

	// Interconnect is the topology family (optional).
	Interconnect *Topology `json:"topology,omitempty"`

	// Transfer, when present, pins the model's transfer surface instead
	// of deriving it analytically from the constants above.
	Transfer *TransferSpec `json:"transfer,omitempty"`
}

// DecodeSpec strictly parses and validates a JSON machine spec. Unknown
// fields, trailing garbage, non-finite or negative constants all fail
// with errors wrapping errs.ErrBadMachineSpec.
func DecodeSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("machine: %w: %v", errs.ErrBadMachineSpec, err)
	}
	// A second Decode must hit EOF: concatenated documents are rejected.
	if dec.More() {
		return nil, fmt.Errorf("machine: %w: trailing data after spec", errs.ErrBadMachineSpec)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and decodes a spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := DecodeSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Validate checks the spec: every constant finite and non-negative,
// per-processor tables sized to Procs with positive speeds, topology
// dimensions multiplying out to the system size.
func (s *Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("machine: %w: %s", errs.ErrBadMachineSpec, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return bad("empty name")
	}
	if s.Procs < 1 {
		return bad("procs = %d, want >= 1", s.Procs)
	}
	type field struct {
		name string
		v    float64
	}
	fields := []field{
		{"send_startup", s.SendStartup}, {"send_per_byte", s.SendPerByte},
		{"recv_startup", s.RecvStartup}, {"recv_per_byte", s.RecvPerByte},
		{"net_per_byte", s.NetPerByte}, {"msg_match_overhead", s.MsgMatchOverhead},
		{"copy_per_byte", s.CopyPerByte},
		{"fma_time", s.FMATime}, {"add_elem_time", s.AddElemTime},
		{"init_elem_time", s.InitElemTime}, {"loop_overhead", s.LoopOverhead},
		{"coll_startup", s.CollStartup}, {"coll_per_byte", s.CollPerByte},
		{"jitter_frac", s.JitterFrac},
	}
	if t := s.Transfer; t != nil {
		fields = append(fields,
			field{"transfer.t_ss", t.Tss}, field{"transfer.t_ps", t.Tps},
			field{"transfer.t_sr", t.Tsr}, field{"transfer.t_pr", t.Tpr},
			field{"transfer.t_n", t.Tn})
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return bad("%s = %v, want finite", f.name, f.v)
		}
		if f.v < 0 {
			return bad("%s = %v, want >= 0", f.name, f.v)
		}
	}
	if len(s.Speeds) != 0 && len(s.Speeds) != s.Procs {
		return bad("%d speed entries for %d processors", len(s.Speeds), s.Procs)
	}
	for i, v := range s.Speeds {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return bad("speeds[%d] = %v, want finite > 0", i, v)
		}
	}
	if len(s.MemCapacity) != 0 && len(s.MemCapacity) != s.Procs {
		return bad("%d mem_capacity entries for %d processors", len(s.MemCapacity), s.Procs)
	}
	for i, v := range s.MemCapacity {
		if v < 0 {
			return bad("mem_capacity[%d] = %d, want >= 0", i, v)
		}
	}
	if t := s.Interconnect; t != nil {
		prod := 1
		for i, d := range t.Dims {
			if d < 1 {
				return bad("topology dims[%d] = %d, want >= 1", i, d)
			}
			prod *= d
		}
		if len(t.Dims) > 0 && prod != s.Procs {
			return bad("topology dims %v multiply to %d, want procs = %d", t.Dims, prod, s.Procs)
		}
	}
	return nil
}

// Canonical returns the canonical encoding of the spec: two-space
// indented JSON with a trailing newline. Every committed database file
// is stored in this form, and the spec-lint test asserts the
// round-trip.
func (s *Spec) Canonical() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Params lowers the spec to simulator ground-truth constants.
func (s *Spec) Params() Params {
	return Params{
		Name:  s.Name,
		Procs: s.Procs,

		SendStartup:      s.SendStartup,
		SendPerByte:      s.SendPerByte,
		RecvStartup:      s.RecvStartup,
		RecvPerByte:      s.RecvPerByte,
		NetPerByte:       s.NetPerByte,
		MsgMatchOverhead: s.MsgMatchOverhead,
		CopyPerByte:      s.CopyPerByte,

		FMATime:      s.FMATime,
		AddElemTime:  s.AddElemTime,
		InitElemTime: s.InitElemTime,
		LoopOverhead: s.LoopOverhead,

		CollStartup: s.CollStartup,
		CollPerByte: s.CollPerByte,

		JitterFrac: s.JitterFrac,
		JitterSeed: s.JitterSeed,

		Speeds:      append([]float64(nil), s.Speeds...),
		MemCapacity: append([]int64(nil), s.MemCapacity...),
	}
}

// SpecFromParams lifts ground-truth constants into a spec (the form the
// committed database is generated from).
func SpecFromParams(p Params) *Spec {
	s := &Spec{
		Name:  p.Name,
		Procs: p.Procs,

		SendStartup:      p.SendStartup,
		SendPerByte:      p.SendPerByte,
		RecvStartup:      p.RecvStartup,
		RecvPerByte:      p.RecvPerByte,
		NetPerByte:       p.NetPerByte,
		MsgMatchOverhead: p.MsgMatchOverhead,
		CopyPerByte:      p.CopyPerByte,

		FMATime:      p.FMATime,
		AddElemTime:  p.AddElemTime,
		InitElemTime: p.InitElemTime,
		LoopOverhead: p.LoopOverhead,

		CollStartup: p.CollStartup,
		CollPerByte: p.CollPerByte,

		JitterFrac: p.JitterFrac,
		JitterSeed: p.JitterSeed,

		Speeds:      append([]float64(nil), p.Speeds...),
		MemCapacity: append([]int64(nil), p.MemCapacity...),
	}
	if top := DefaultTopology(p.Name, p.Procs); top.Kind != "" {
		s.Interconnect = &top
	}
	return s
}

// FromSpec returns the analytical backend for a spec, validating it
// first. A pinned transfer surface in the spec replaces the derived one.
func FromSpec(s *Spec) (*Analytical, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	a := &Analytical{p: s.Params()}
	if t := s.Transfer; t != nil {
		a.pinned = &costmodel.TransferParams{Tss: t.Tss, Tps: t.Tps, Tsr: t.Tsr, Tpr: t.Tpr, Tn: t.Tn}
	}
	return a, nil
}
