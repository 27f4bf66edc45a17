// Cluster-scope execution: the root glue between the shared-clock
// multi-job simulator (internal/cluster) and the per-job paper
// pipeline. The cluster loop is model-agnostic; this file supplies the
// Runner that executes each placed job through allocate → schedule →
// codegen → simulate with the partition-relative fault plan and the
// PR 3 recovery driver, plus the data digest that serves as the chaos
// gate's oracle.
//
// The digest deliberately covers *data only* — every output array's
// float64 bits in sorted-name order. Result.Digest() (checkpoint.go)
// identifies a whole run including allocation and recovery trail, so it
// legitimately differs between a faulted and a fault-free execution.
// The data digest does not: recovery is bit-exact (salvage restores
// blocks exactly, re-runs repeat the FP summation orders) and the
// simulated numerics are procs-invariant, so one fault-free reference
// digest is a valid oracle for any partition size, any router, any
// fault timing. That invariance is what "every completed job
// byte-identical to its fault-free run" means.
package paradigm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"paradigm/internal/cluster"
	"paradigm/internal/fault"
)

// Cluster-layer re-exports.
type (
	// ClusterSpec describes one job in a cluster run; Payload must be
	// the job's *Program.
	ClusterSpec = cluster.Spec
	// ClusterOptions configures the shared-clock loop (pool size,
	// router, pool fault plan, detection latency, admission bound).
	ClusterOptions = cluster.Options
	// ClusterOutcome is the deterministic record of a cluster run.
	ClusterOutcome = cluster.Outcome
	// ClusterJobResult is one completed job's record.
	ClusterJobResult = cluster.JobResult
	// ClusterRunner executes one placed job; PipelineRunner is the
	// paper-pipeline implementation.
	ClusterRunner = cluster.Runner
)

// Router names for ClusterOptions.Router.
const (
	RouterRoundRobin  = cluster.RouterRoundRobin
	RouterLeastLoaded = cluster.RouterLeastLoaded
	RouterBestFit     = cluster.RouterBestFit
)

// PipelineRunner executes cluster jobs through the full paper pipeline
// on a machine profile resized to each partition. Safe for reuse across
// runs; the embedded allocation cache (exact replay only) makes repeated
// placements of one program cheap without perturbing determinism.
type PipelineRunner struct {
	m          Machine
	cal        *Calibration
	recoverMax int
	cache      *AllocCache
}

// NewPipelineRunner returns a Runner executing jobs on partitions of m
// with up to recoverMax recovery attempts per job (<= 0 defaults to 3:
// a cluster runner without recovery would lose every faulted job).
func NewPipelineRunner(m Machine, cal *Calibration, recoverMax int) *PipelineRunner {
	if recoverMax <= 0 {
		recoverMax = 3
	}
	return &PipelineRunner{m: m, cal: cal, recoverMax: recoverMax, cache: NewAllocCache(128)}
}

// program extracts the job body.
func (r *PipelineRunner) program(spec ClusterSpec) (*Program, error) {
	p, ok := spec.Payload.(*Program)
	if !ok || p == nil {
		return nil, fmt.Errorf("paradigm: cluster job %q payload is %T, want *Program", spec.ID, spec.Payload)
	}
	return p, nil
}

// Run implements cluster.Runner: one full pipeline execution on a
// procs-processor partition under the translated fault plan.
func (r *PipelineRunner) Run(spec ClusterSpec, procs int, plan *fault.Plan) (cluster.RunOutcome, error) {
	p, err := r.program(spec)
	if err != nil {
		return cluster.RunOutcome{}, err
	}
	opts := []Option{WithAllocOptions(AllocOptions{Cache: r.cache})}
	if plan != nil && !plan.Empty() {
		opts = append(opts, WithFaultPlan(plan), WithRecovery(r.recoverMax))
	}
	res, err := RunContext(context.Background(), p, r.m.WithProcs(procs), r.cal, procs, opts...)
	if err != nil {
		return cluster.RunOutcome{}, err
	}
	digest, err := DataDigest(p, res.Sim)
	if err != nil {
		return cluster.RunOutcome{}, err
	}
	// A recovered run's virtual duration spans the halted attempt plus
	// the re-run: the halt is diagnosed no earlier than the last death
	// that fired, so the latest plan fail time is the rebase point and
	// Actual is the re-run makespan on top of it.
	dur := res.Actual
	if res.Recovered && plan != nil {
		rebase := 0.0
		for _, f := range plan.ProcFails {
			if f.At > rebase {
				rebase = f.At
			}
		}
		dur = rebase + res.Actual
	}
	return cluster.RunOutcome{
		Duration: dur, Digest: digest,
		Recovered: res.Recovered, Attempts: res.RecoveryAttempts,
	}, nil
}

// Predict implements cluster.Runner: the convex program's objective Φ
// for the job at a partition size — the best-fit router's cost surface.
// Solve failures report NaN ("unknown"), which the router treats as
// no preference.
func (r *PipelineRunner) Predict(spec ClusterSpec, procs int) float64 {
	p, err := r.program(spec)
	if err != nil {
		return math.NaN()
	}
	ar, err := AllocateContext(context.Background(), p.G, r.cal.Model(), procs,
		WithAllocOptions(AllocOptions{Cache: r.cache}))
	if err != nil {
		return math.NaN()
	}
	return ar.Phi
}

// RunCluster executes the shared-clock multi-job simulation: specs
// arrive over virtual time, are routed onto partitions of a
// o.Procs-processor pool, and survive the pool-scoped fault plan. When
// o.Runner is nil a PipelineRunner over m/cal is used.
func RunCluster(specs []ClusterSpec, m Machine, cal *Calibration, o ClusterOptions) (*ClusterOutcome, error) {
	if o.Runner == nil {
		o.Runner = NewPipelineRunner(m, cal, 0)
	}
	return cluster.Run(specs, o)
}

// ReplayCluster reruns a cluster simulation with counterfactual
// partition-size overrides per job ID — "what if this job had gotten 32
// processors instead of 16" as a full deterministic re-simulation.
func ReplayCluster(specs []ClusterSpec, m Machine, cal *Calibration, o ClusterOptions, overrides map[string]int) (*ClusterOutcome, error) {
	if o.Runner == nil {
		o.Runner = NewPipelineRunner(m, cal, 0)
	}
	return cluster.Replay(specs, o, overrides)
}

// DataDigest hashes every output array of a simulated run — float64
// bits, row-major, arrays in sorted name order. Because recovery is
// bit-exact and the simulated numerics are procs-invariant, the digest
// is a pure function of the program's data: it is identical across
// partition sizes, fault plans, and recovery paths, which makes the
// fault-free digest the byte-identity oracle for cluster chaos runs.
func DataDigest(p *Program, res *SimResult) (string, error) {
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var buf [8]byte
	for _, name := range names {
		mat, err := res.Gather(name)
		if err != nil {
			return "", err
		}
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(buf[:], uint64(len(mat.Data)))
		h.Write(buf[:])
		for _, v := range mat.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
