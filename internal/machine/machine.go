// Package machine defines the parameter sets describing a target
// distributed-memory multicomputer.
//
// Two distinct parameter families live here:
//
//   - Params: the simulator's ground-truth constants. These drive
//     internal/sim and play the role of the physical CM-5 in the paper.
//     They are deliberately richer than the analytic cost models
//     (per-message matching overhead, log-tree collectives, ceiling-based
//     block imbalance arise from them), so the posynomial models remain an
//     approximation that the training-sets regression has to fit — exactly
//     the situation the authors faced with real hardware.
//
//   - The *fitted* model parameters (α, τ per loop; t_ss, t_ps, t_sr,
//     t_pr, t_n per machine) live in internal/costmodel and are produced
//     by internal/trainsets, mirroring Tables 1 and 2.
//
// All times are in seconds.
package machine

import (
	"fmt"
	"slices"
)

// Params is the ground truth describing one machine configuration.
type Params struct {
	// Name identifies the profile (e.g. "CM5").
	Name string
	// Procs is the system size p.
	Procs int

	// Point-to-point messaging.
	SendStartup float64 // per-message fixed cost at the sender
	SendPerByte float64 // per-byte cost at the sender
	RecvStartup float64 // per-message fixed cost at the receiver
	RecvPerByte float64 // per-byte cost at the receiver
	NetPerByte  float64 // network transit per byte (0 on the CM-5: folded
	// into the receive when the send completed first; see Section 4)

	// MsgMatchOverhead is an extra per-message tag-matching cost paid by
	// the receiver. It is NOT part of the paper's model; it exists so the
	// fitted model has a genuine residual.
	MsgMatchOverhead float64

	// CopyPerByte is the cost of a processor-local memory move, paid when
	// a redistribution keeps a block on the same processor. The paper's
	// model conservatively charges such moves as full transfers; the
	// machine charges only the memcpy — another source of model residual.
	CopyPerByte float64

	// Compute costs.
	FMATime      float64 // per fused multiply-add (matrix multiply inner loop)
	AddElemTime  float64 // per element of a matrix add/subtract
	InitElemTime float64 // per element of a matrix initialization
	LoopOverhead float64 // fixed serial prologue per loop nest invocation

	// Intra-node collectives (the all-gather of the B operand inside a
	// data-parallel matrix multiply): a log2(q)-depth tree with per-stage
	// startup and per-byte costs. This is the main source of the Amdahl
	// serial fraction α that calibration recovers for Multiply.
	CollStartup float64
	CollPerByte float64

	// JitterFrac adds deterministic pseudo-random noise to per-processor
	// kernel execution times: each (node, processor) execution is scaled
	// by a factor in [1, 1+JitterFrac], derived from JitterSeed. It
	// emulates OS noise and cache effects real machines exhibit; 0 keeps
	// the simulator exactly repeatable against the analytic model
	// (ablation A7 sweeps it).
	JitterFrac float64
	JitterSeed uint64

	// Speeds holds per-processor relative speed multipliers for
	// heterogeneous machines: processor i executes compute kernels
	// Speeds[i] times faster than the base constants above. Empty means
	// homogeneous (every processor at speed 1), which keeps the simulator
	// arithmetic bit-identical to the pre-heterogeneity pipeline. When
	// non-empty the length must equal Procs and every entry must be
	// positive. JSON key kept at the default field name but omitted when
	// empty so homogeneous checkpoint payloads do not change shape.
	Speeds []float64 `json:",omitempty"`
	// MemCapacity holds per-processor memory capacities in bytes. Empty
	// means unbounded; a zero entry also means unbounded for that
	// processor. Carried as a first-class machine property for
	// capacity-aware allocation (ROADMAP item 7); the current pipeline
	// records and validates it but does not yet enforce it.
	MemCapacity []int64 `json:",omitempty"`
}

// SpeedOf returns processor proc's relative speed multiplier: 1 for
// homogeneous profiles or out-of-range indices.
func (p Params) SpeedOf(proc int) float64 {
	if proc < 0 || proc >= len(p.Speeds) {
		return 1
	}
	return p.Speeds[proc]
}

// Heterogeneous reports whether any per-processor speed differs from 1.
func (p Params) Heterogeneous() bool {
	for _, s := range p.Speeds {
		if s != 1 {
			return true
		}
	}
	return false
}

// Equal compares two profiles field by field, including the
// per-processor tables. Params is no longer comparable with == (it
// carries slices), so identity checks — checkpoint resume validation in
// particular — go through this.
func (p Params) Equal(q Params) bool {
	return p.Name == q.Name && p.Procs == q.Procs &&
		p.SendStartup == q.SendStartup && p.SendPerByte == q.SendPerByte &&
		p.RecvStartup == q.RecvStartup && p.RecvPerByte == q.RecvPerByte &&
		p.NetPerByte == q.NetPerByte && p.MsgMatchOverhead == q.MsgMatchOverhead &&
		p.CopyPerByte == q.CopyPerByte &&
		p.FMATime == q.FMATime && p.AddElemTime == q.AddElemTime &&
		p.InitElemTime == q.InitElemTime && p.LoopOverhead == q.LoopOverhead &&
		p.CollStartup == q.CollStartup && p.CollPerByte == q.CollPerByte &&
		p.JitterFrac == q.JitterFrac && p.JitterSeed == q.JitterSeed &&
		slices.Equal(p.Speeds, q.Speeds) && slices.Equal(p.MemCapacity, q.MemCapacity)
}

// Jitter returns the multiplicative execution-noise factor for one
// (node, processor) pair: deterministic in (JitterSeed, node, proc) via a
// splitmix64 hash, uniform in [1, 1+JitterFrac].
func (p Params) Jitter(node, proc int) float64 {
	if p.JitterFrac <= 0 {
		return 1
	}
	x := p.JitterSeed ^ (uint64(node)+1)*0x9E3779B97F4A7C15 ^ (uint64(proc)+1)*0xBF58476D1CE4E5B9
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53) // [0,1)
	return 1 + p.JitterFrac*u
}

// Validate checks that the profile is physically meaningful.
func (p Params) Validate() error {
	if p.Procs < 1 {
		return fmt.Errorf("machine: Procs = %d, want >= 1", p.Procs)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"SendStartup", p.SendStartup}, {"SendPerByte", p.SendPerByte},
		{"RecvStartup", p.RecvStartup}, {"RecvPerByte", p.RecvPerByte},
		{"NetPerByte", p.NetPerByte}, {"MsgMatchOverhead", p.MsgMatchOverhead},
		{"CopyPerByte", p.CopyPerByte},
		{"FMATime", p.FMATime}, {"AddElemTime", p.AddElemTime},
		{"InitElemTime", p.InitElemTime}, {"LoopOverhead", p.LoopOverhead},
		{"CollStartup", p.CollStartup}, {"CollPerByte", p.CollPerByte},
		{"JitterFrac", p.JitterFrac},
	} {
		if c.v < 0 {
			return fmt.Errorf("machine: %s = %v, want >= 0", c.name, c.v)
		}
	}
	if len(p.Speeds) != 0 && len(p.Speeds) != p.Procs {
		return fmt.Errorf("machine: %d speed entries for %d processors", len(p.Speeds), p.Procs)
	}
	for i, s := range p.Speeds {
		if !(s > 0) { // also rejects NaN
			return fmt.Errorf("machine: Speeds[%d] = %v, want > 0", i, s)
		}
	}
	if len(p.MemCapacity) != 0 && len(p.MemCapacity) != p.Procs {
		return fmt.Errorf("machine: %d capacity entries for %d processors", len(p.MemCapacity), p.Procs)
	}
	for i, c := range p.MemCapacity {
		if c < 0 {
			return fmt.Errorf("machine: MemCapacity[%d] = %d, want >= 0", i, c)
		}
	}
	return nil
}

// WithProcs returns a copy of the profile resized to n processors. A
// heterogeneous speed (or capacity) table is truncated or padded — with
// speed 1 / unbounded capacity — to the new size, so running a profile
// on a partition of another size keeps it valid.
func (p Params) WithProcs(n int) Params {
	p.Procs = n
	p.Speeds = resizeTable(p.Speeds, n, 1)
	p.MemCapacity = resizeTable(p.MemCapacity, n, 0)
	return p
}

// Survivors returns the profile of the processors left when those in
// failed (indices into this profile) have died. The survivors keep their
// own speed and capacity entries and are renumbered in order: survivor k
// is the k-th processor not in failed, the numbering fault.Plan.Residual
// gives the pending deaths of a recovery's re-run.
func (p Params) Survivors(failed []int) Params {
	n := 0
	for q := 0; q < p.Procs; q++ {
		if !slices.Contains(failed, q) {
			n++
		}
	}
	p.Procs = n
	p.Speeds = dropFailed(p.Speeds, failed)
	p.MemCapacity = dropFailed(p.MemCapacity, failed)
	return p
}

// dropFailed removes the failed processors' entries from a per-processor
// table, leaving empty (homogeneous/unbounded) tables empty.
func dropFailed[T any](t []T, failed []int) []T {
	if len(t) == 0 {
		return t
	}
	out := make([]T, 0, len(t))
	for q, v := range t {
		if !slices.Contains(failed, q) {
			out = append(out, v)
		}
	}
	return out
}

// resizeTable truncates or pads a per-processor table to n entries,
// leaving empty (homogeneous/unbounded) tables empty.
func resizeTable[T any](t []T, n int, pad T) []T {
	if len(t) == 0 || len(t) == n {
		return t
	}
	if n < 0 {
		n = 0
	}
	out := make([]T, n)
	copied := copy(out, t)
	for i := copied; i < n; i++ {
		out[i] = pad
	}
	return out
}

// CM5 returns a profile whose constants put the calibrated model
// parameters in the same magnitude range the paper measured on the 64-node
// Thinking Machines CM-5 (Tables 1 and 2: t_ss ≈ 778 µs, t_ps ≈ 487 ns/B,
// t_sr ≈ 466 µs, t_pr ≈ 426 ns/B, t_n = 0; τ ≈ 298 ms for a 64×64 matrix
// multiply with α ≈ 12%, τ ≈ 3.7 ms for a 64×64 add with α ≈ 7%).
func CM5(procs int) Params {
	return Params{
		Name:  "CM5",
		Procs: procs,

		SendStartup: 740e-6,
		SendPerByte: 480e-9,
		RecvStartup: 430e-6,
		RecvPerByte: 300e-9,
		NetPerByte:  0, // CM-5 semantics: transit paid inside the receive
		// (receives always follow completed sends under PSA schedules)
		MsgMatchOverhead: 12e-6,
		CopyPerByte:      30e-9,

		FMATime:      1.12e-6, // 64³ FMAs ≈ 294 ms serial multiply
		AddElemTime:  0.82e-6, // 64² adds ≈ 3.4 ms serial add
		InitElemTime: 0.40e-6,
		LoopOverhead: 230e-6,

		CollStartup: 350e-6,
		CollPerByte: 160e-9,
	}
}

// Paragon returns an Intel-Paragon-like profile: an order of magnitude
// faster processors and network than the CM-5, lower message startups,
// and — unlike the CM-5 — a genuine per-byte network transit (t_n > 0),
// exercising the edge-delay term of the cost model. Used by the
// portability experiment (E11) to show the methodology is not
// CM-5-specific.
func Paragon(procs int) Params {
	return Params{
		Name:  "Paragon",
		Procs: procs,

		SendStartup:      120e-6,
		SendPerByte:      25e-9,
		RecvStartup:      90e-6,
		RecvPerByte:      20e-9,
		NetPerByte:       6e-9,
		MsgMatchOverhead: 5e-6,
		CopyPerByte:      5e-9,

		FMATime:      30e-9,
		AddElemTime:  20e-9,
		InitElemTime: 10e-9,
		LoopOverhead: 30e-6,

		CollStartup: 60e-6,
		CollPerByte: 8e-9,
	}
}
