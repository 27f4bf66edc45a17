// Crash-safe checkpointing: the public face of internal/ckpt.
//
// WithCheckpoint attaches a write-ahead checkpoint log to a pipeline
// call. Each completed stage (calibration fit, allocation vector, PSA
// schedule, recovery salvage, run outcome) commits one CRC-checked
// record: the log file is created with an atomic rename and each commit
// appends the record, then publishes it by rewriting the header's
// commit pointer in place (crash-atomic under process death). A killed
// run re-invoked with the same log resumes from the last committed
// stage and — because every stage is deterministic — produces a
// bit-identical result, which the chaos tests verify with
// oracle.CheckRun on the resumed trace. The MPMD code is not logged:
// a resumed run regenerates it from the restored schedule, as a run
// without a checkpoint generates it.
//
//	cp, err := paradigm.OpenDeferredCheckpoint("run.wal") // resumes if it exists
//	res, err := paradigm.RunContext(ctx, p, m, cal, 64,
//	    paradigm.WithCheckpoint(cp))
//
// The log is bound to one job: a meta record (program, system size,
// machine) is committed first and validated on resume, so replaying a
// log against a different job fails with ErrCheckpointMismatch instead
// of resuming silently. A damaged log (truncation, bit flip) fails with
// ErrCheckpointCorrupt at open time.
//
// OpenDeferredCheckpoint resumes a log or starts one whose file comes
// into being at the first stage worth resuming from, with every stage
// completed before it; a run whose plan replayed from a cache never
// creates one. CreateCheckpoint starts over, LoadCheckpoint only resumes.
package paradigm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"paradigm/internal/ckpt"
	"paradigm/internal/obs"
)

// Checkpoint sentinels (see internal/ckpt).
var (
	// ErrCheckpointCorrupt marks a checkpoint log that fails structural
	// or CRC validation — it is refused, never resumed silently.
	ErrCheckpointCorrupt = ckpt.ErrCorrupt
	// ErrCheckpointVersion marks a log written by an incompatible
	// format version.
	ErrCheckpointVersion = ckpt.ErrVersion
	// ErrCheckpointMismatch marks a valid log that belongs to a
	// different job (program, machine, or system size).
	ErrCheckpointMismatch = ckpt.ErrMismatch
)

// Checkpoint is an open write-ahead checkpoint log. Use one Checkpoint
// per pipeline run; it is not safe for concurrent pipeline calls.
type Checkpoint struct{ log *ckpt.Log }

// CreateCheckpoint starts a fresh log at path, truncating any previous
// one — the "start over" entry point.
func CreateCheckpoint(path string) (*Checkpoint, error) {
	l, err := ckpt.Create(path)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{log: l}, nil
}

// OpenDeferredCheckpoint resumes the log at path if it exists; otherwise
// it returns a checkpoint with no file yet, which creates one only when a
// stage worth logging commits: a calibration that was fitted, an
// allocation that was solved rather than replayed from a cache, or a
// recovery salvage. Until then completed stages are remembered, not
// encoded, and a run that finishes without one — every plan a cache
// replay — leaves nothing on disk: killed, it would replay from scratch
// to the same result in less time than the log took to write. A service
// opens its per-job logs this way; its job journal, not this log, is
// what makes an acknowledged job durable.
func OpenDeferredCheckpoint(path string) (*Checkpoint, error) {
	l, err := ckpt.OpenDeferred(path)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{log: l}, nil
}

// LoadCheckpoint opens an existing log strictly: a missing or damaged
// file is an error.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	l, err := ckpt.Load(path)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{log: l}, nil
}

// Path returns the log's file path.
func (cp *Checkpoint) Path() string { return cp.log.Path() }

// Stages lists the committed stage names in commit order: the records
// the file holds, so none while a deferred checkpoint has no file.
func (cp *Checkpoint) Stages() []string { return cp.log.Stages() }

// OnCommit registers a hook invoked after each commit is durable on
// disk (the chaos tests kill the process from it).
func (cp *Checkpoint) OnCommit(fn func(stage string, seq int)) { cp.log.OnCommit(fn) }

// SetFullSync selects the durability mode. The default (off) commits
// with two page-cache writes, which survive process death — the
// pipeline's crash model — at microsecond cost per stage. Full sync
// fsyncs the appended record before the commit pointer is written and
// the pointer after it, so committed stages also survive kernel crashes
// and power loss, at fsync cost per commit.
func (cp *Checkpoint) SetFullSync(on bool) { cp.log.SetFullSync(on) }

// Close releases the checkpoint's file handle. The log stays usable: a
// later commit reopens it. Services that hold many finished jobs call
// this to bound open descriptors.
func (cp *Checkpoint) Close() error { return cp.log.Close() }

// WithCheckpoint attaches cp to the call: completed stages commit to
// the log, already-committed stages are restored from it (emitting one
// obs.Resume event each) instead of recomputed. A nil cp is a no-op.
func WithCheckpoint(cp *Checkpoint) Option {
	return func(c *config) { c.ckpt = cp }
}

// Digest returns a stable hex fingerprint of the result's deterministic
// content: the allocation vector and its objective decomposition, both
// makespans, the full schedule snapshot, the simulated traffic
// accounting, and the recovery trajectory. Every covered field is
// bit-exact under checkpoint resume, so a resumed run's digest equals
// the crash-free run's — the equality the service journals on job
// completion and the chaos suite checks across a SIGKILL/restart cycle.
// Wall-clock quantities and solver diagnostics are deliberately
// excluded.
func (r *Result) Digest() string {
	h := sha256.New()
	var buf [8]byte
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wi := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	wi(len(r.Alloc.P))
	for _, p := range r.Alloc.P {
		wf(p)
	}
	wf(r.Alloc.Phi)
	wf(r.Predicted)
	wf(r.Actual)
	if r.Sched != nil {
		if payload, err := ckpt.EncodeSchedule(r.Sched); err == nil {
			h.Write(payload)
		}
	}
	if r.Sim != nil {
		wi(r.Sim.Messages)
		wi(r.Sim.NetworkBytes)
	}
	wi(r.RecoveryAttempts)
	for _, p := range r.FailedProcs {
		wi(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ckptActive reports whether a usable checkpoint is attached.
func (c *config) ckptActive() bool { return c.ckpt != nil && c.ckpt.log != nil }

// emit sends e to the call's observer under the usual nil guard.
func (c *config) emit(e obs.Event) {
	if c.observer != nil {
		c.observer.Observe(e)
	}
}

// ckptCommit commits a stage whose payload encode produces, and emits a
// Checkpoint event for every record the call made durable: the stage's
// own on a log that has its file, none while a deferred log buffers, and
// the whole buffer in commit order when worth — the stage computed
// something a resume should not recompute — makes the log materialize.
// worth must depend on the request and the caches' contents only, never
// on a clock: the events feed the deterministic metrics registry.
func (c *config) ckptCommit(stage string, worth bool, encode func() ([]byte, error)) error {
	log := c.ckpt.log
	from := log.Len()
	err := log.CommitFunc(stage, encode)
	if err == nil && worth {
		err = log.Materialize()
	}
	if err != nil {
		return err
	}
	for _, r := range log.Records()[from:] {
		c.emit(obs.Checkpoint{Stage: r.Stage, Seq: r.Seq, Bytes: len(r.Payload)})
	}
	return nil
}

// ckptBindRun binds the log to this run's identity: the first run
// commits a meta record; a resume validates it and refuses a log that
// belongs to a different job.
func (c *config) ckptBindRun(p *Program, mp Machine, procs int) error {
	if !c.ckptActive() {
		return nil
	}
	if data, _, ok := c.ckpt.log.Lookup(ckpt.StageMeta); ok {
		meta, err := ckpt.DecodeMeta(data)
		if err != nil {
			return err
		}
		return meta.Check(p.Name, procs, p.G.NumNodes(), mp)
	}
	meta := ckpt.Meta{Program: p.Name, Procs: procs, Nodes: p.G.NumNodes(), Machine: mp}
	return c.ckptCommit(ckpt.StageMeta, false, func() ([]byte, error) { return ckpt.EncodeMeta(meta) })
}

// ckptDone commits the run outcome, or — when a done record already
// exists (a run resumed after its final commit) — validates this run's
// outcome against it: the last line of defense that resume was
// bit-identical.
func (c *config) ckptDone(res *Result) error {
	if !c.ckptActive() {
		return nil
	}
	d := ckpt.DoneState{
		Makespan:     res.Sim.Makespan,
		Messages:     res.Sim.Messages,
		NetworkBytes: res.Sim.NetworkBytes,
		Recovered:    res.Recovered,
		Attempts:     res.RecoveryAttempts,
	}
	if data, seq, ok := c.ckpt.log.Lookup(ckpt.StageDone); ok {
		prev, err := ckpt.DecodeDone(data)
		if err != nil {
			return err
		}
		if prev != d {
			return fmt.Errorf("%w: resumed run diverged from the committed outcome (makespan %v vs %v, messages %d vs %d)",
				ErrCheckpointMismatch, d.Makespan, prev.Makespan, d.Messages, prev.Messages)
		}
		c.emit(obs.Resume{Stage: ckpt.StageDone, Seq: seq})
		return nil
	}
	return c.ckptCommit(ckpt.StageDone, false, func() ([]byte, error) { return ckpt.EncodeDone(d) })
}

// ckptSalvage commits one recovery attempt's salvage state, or — when
// the attempt was already committed by a killed run — validates that
// this run's recomputed salvage encodes to the committed payload byte
// for byte. The encoding sorts its keys and round-trips every float64
// exactly, so equal bytes are equal states bit for bit (recovery is
// deterministic; a divergence is a real bug, not noise).
func (c *config) ckptSalvage(stage string, s ckpt.SalvageState) error {
	if data, seq, ok := c.ckpt.log.Lookup(stage); ok {
		payload, err := ckpt.EncodeSalvage(s)
		if err != nil {
			return err
		}
		if !bytes.Equal(payload, data) {
			return fmt.Errorf("%w: resumed recovery diverged from the committed %s record", ErrCheckpointMismatch, stage)
		}
		c.emit(obs.Resume{Stage: stage, Seq: seq})
		return nil
	}
	return c.ckptCommit(stage, true, func() ([]byte, error) { return ckpt.EncodeSalvage(s) })
}
