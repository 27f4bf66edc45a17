// Package obs is the pipeline observability layer: structured events and
// a zero-dependency metrics registry the whole reproduction reports into.
//
// The paper's argument rests on predicted-vs-actual agreement (Section 5,
// Figures 7-8), but a pipeline that only returns two makespans cannot
// show *why* a schedule costs what it costs. This package defines the
// event vocabulary each stage emits — the convex solver's per-stage
// convergence (SolverStage), the PSA's rounding and list-scheduling
// decisions (PSARound, PSAPick), the simulator's per-message traffic and
// per-processor accounting (Comm, NodeRun, ProcStat), and the
// training-sets fit quality (CalibFit) — plus the Observer interface that
// receives them.
//
// Design constraints, in order:
//
//   - Zero cost when unused: every instrumented call site guards with a
//     nil check, so the uninstrumented pipeline pays one pointer
//     comparison per would-be event.
//   - Determinism: events may be emitted concurrently (calibration
//     sweeps and experiment cells run on the par pool), so
//     consumers that promise deterministic output must either fold events
//     commutatively (the metrics registry does — see metrics.go) or sort
//     them by their intrinsic coordinates (the trace exporter does).
//   - No dependencies: events carry plain ints/floats/strings; the
//     package imports only the standard library.
package obs

import "sync"

// Observer receives structured pipeline events. Implementations must be
// safe for concurrent use: the calibration sweep and concurrent pipeline
// runs emit from worker-pool goroutines.
type Observer interface {
	Observe(Event)
}

// Kind discriminates event types without reflection.
type Kind uint8

const (
	// KindSolverStage: one interior-point iteration of a convex solve.
	KindSolverStage Kind = iota
	// KindPSARound: the rounding/bounding decision for one node.
	KindPSARound
	// KindPSAPick: one list-scheduling pick.
	KindPSAPick
	// KindComm: one simulated point-to-point message.
	KindComm
	// KindNodeRun: one simulated node execution window.
	KindNodeRun
	// KindProcStat: one processor's busy/idle account for a run.
	KindProcStat
	// KindCalibFit: one training-sets fit summary.
	KindCalibFit
	// KindFault: one injected fault taking effect in the simulator.
	KindFault
	// KindRecovery: one recovery attempt after a halted simulation.
	KindRecovery
	// KindReplan: one replanning (or allocator degradation) decision.
	KindReplan
	// KindCheckpoint: one stage snapshot committed to the WAL.
	KindCheckpoint
	// KindResume: one stage restored from a committed WAL record.
	KindResume
	// KindRetry: one budget-governed stage retry about to back off.
	KindRetry
	// KindBreaker: one circuit-breaker decision at a stage boundary.
	KindBreaker
	// KindAllocCache: one allocation-cache lookup by the allocator.
	KindAllocCache
	// KindAllocDone: one completed allocation solve, any backend.
	KindAllocDone
	// KindJournal: one record made durable in the service job journal.
	KindJournal
	// KindSchedCache: one pipeline-level schedule-cache lookup.
	KindSchedCache
)

// Event is one structured pipeline event.
type Event interface {
	Kind() Kind
}

// SolverStage reports one interior-point iteration of the convex
// allocation solve: the duality gap and the bound on Φ at the iterate —
// the data behind a solver-convergence trajectory.
type SolverStage struct {
	// StartIdx is always 0: the allocator solves from one start point.
	// It keeps the trace's per-start counter track ("phi start0") and
	// recorded event streams in their established shape. Stage counts
	// iterations within the solve, from 0.
	StartIdx, Stage int
	// Gap is the iterate's duality gap, in log units. On the last
	// iteration it is the solve's certificate: Φ at the returned
	// allocation is within a factor e^Gap of the optimum, and the solve
	// stops once that is at most e^{1e-9}.
	Gap float64
	// Phi is e to the iterate's epigraph objective; on the last
	// iteration, Φ at the returned allocation.
	Phi float64
	// Iters is 1 and Evals counts the iteration's constraint
	// evaluations, line search included.
	Iters, Evals int
	// Status is "stepped" until the last iteration, which carries the
	// solve's stop reason ("gap-converged").
	Status string
}

// Kind implements Event.
func (SolverStage) Kind() Kind { return KindSolverStage }

// PSARound reports the rounding-off + bounding decision for one node:
// the continuous allocation, the arithmetic-nearest power of two, and
// the value after the Corollary-1 PB clip.
type PSARound struct {
	Node int
	// Continuous is the convex program's p_i.
	Continuous float64
	// Rounded is the nearest power of two before bounding; Final is the
	// allocation after the PB clamp. Clipped reports Final < Rounded.
	Rounded, Final int
	Clipped        bool
}

// Kind implements Event.
func (PSARound) Kind() Kind { return KindPSARound }

// PSAPick reports one list-scheduling decision: the ready node picked
// (lowest EST under the paper's policy), its earliest start time, the
// processor satisfaction time of the chosen processor set, and the
// resulting execution window.
type PSAPick struct {
	Node int
	// EST is the precedence-imposed earliest start; PST is when the
	// chosen processors free up; Start = max(EST, PST).
	EST, PST, Start, Finish float64
	// Procs is the allocation size actually granted.
	Procs int
}

// Kind implements Event.
func (PSAPick) Kind() Kind { return KindPSAPick }

// Comm reports one simulated point-to-point message, recorded when the
// receive completes (the only moment the full timeline is known).
type Comm struct {
	// Tag is the codegen message tag (unique per run).
	Tag      string
	From, To int
	Bytes    int
	// SendStart..SendEnd is the sender's busy window; NetReady is when
	// the payload clears the network; RecvStart..RecvEnd is the
	// receiver's busy window.
	SendStart, SendEnd, NetReady, RecvStart, RecvEnd float64
}

// Kind implements Event.
func (Comm) Kind() Kind { return KindComm }

// NodeRun reports one node's actual (simulated) execution window.
type NodeRun struct {
	Node          int
	Start, Finish float64
	Procs         int
}

// Kind implements Event.
func (NodeRun) Kind() Kind { return KindNodeRun }

// ProcStat reports one processor's final accounting for a simulated run:
// Busy is time spent advancing the clock (sends, receives, copies,
// kernel execution); Idle is Makespan - final clock plus intra-run waits
// (blocked receives, barrier waits).
type ProcStat struct {
	Proc       int
	Busy, Idle float64
}

// Kind implements Event.
func (ProcStat) Kind() Kind { return KindProcStat }

// CalibFit reports one training-sets regression: the fit name (a Table 1
// loop row or the Table 2 send/recv fit), its R², the worst absolute
// residual over the sweep, and the sample count. Warning is set when the
// R² fell below the trainsets quality threshold — the fit is kept but
// flagged instead of silently trusted.
type CalibFit struct {
	Name           string
	R2             float64
	MaxAbsResidual float64
	Samples        int
	Warning        bool
}

// Kind implements Event.
func (CalibFit) Kind() Kind { return KindCalibFit }

// Fault reports one injected fault taking effect in the simulator:
// Kind is "proc-fail", "msg-drop", "msg-duplicate", "msg-delay" or
// "straggler"; the coordinate fields that do not apply are -1/"".
// Time is the virtual time at which the fault fired.
type Fault struct {
	FaultKind string
	Proc      int
	Node      int
	Tag       string
	Time      float64
}

// Kind implements Event.
func (Fault) Kind() Kind { return KindFault }

// Recovery reports one recovery attempt after a halted simulation:
// Cause names the halt sentinel, Failed/Survivors count processors,
// Restored counts arrays salvaged from surviving blocks, Residual
// counts nodes that must re-execute.
type Recovery struct {
	Attempt   int
	Cause     string
	Failed    int
	Survivors int
	Restored  int
	Residual  int
}

// Kind implements Event.
func (Recovery) Kind() Kind { return KindRecovery }

// Replan reports one replanning decision: a recovery-driven reschedule
// (Stage "recovery") or the allocator's degradation to its heuristic
// (Stage "heuristic-fallback"). Phi is the objective of
// the replacement allocation; Procs the system size it targets.
type Replan struct {
	Attempt int
	Stage   string
	Procs   int
	Phi     float64
}

// Kind implements Event.
func (Replan) Kind() Kind { return KindReplan }

// Checkpoint reports one stage snapshot made durable in the write-ahead
// checkpoint log: the stage name, its sequence number in commit order,
// and the payload size.
type Checkpoint struct {
	Stage string
	Seq   int
	Bytes int
}

// Kind implements Event.
func (Checkpoint) Kind() Kind { return KindCheckpoint }

// Resume reports one stage restored from a committed checkpoint record
// instead of recomputed — the signature of a resumed run.
type Resume struct {
	Stage string
	Seq   int
}

// Kind implements Event.
func (Resume) Kind() Kind { return KindResume }

// Retry reports one budget-governed retry: attempt numbers the failure
// (1-based), DelaySeconds is the decorrelated-jitter backoff about to be
// slept, Err the failure being retried.
type Retry struct {
	Stage        string
	Attempt      int
	DelaySeconds float64
	Err          string
}

// Kind implements Event.
func (Retry) Kind() Kind { return KindRetry }

// Breaker reports one circuit-breaker decision: State is the breaker
// state observed at the decision ("open" means the call was shed to the
// heuristic fallback without touching the solver).
type Breaker struct {
	Stage string
	State string
}

// Kind implements Event.
func (Breaker) Kind() Kind { return KindBreaker }

// AllocCache reports one allocation-cache lookup: Outcome is "hit" (an
// exact entry replayed without solving) or "miss" (a cold solve follows).
// The outcome sequence is deterministic for a given request sequence, so
// folding it preserves registry determinism.
type AllocCache struct {
	Outcome string
}

// Kind implements Event.
func (AllocCache) Kind() Kind { return KindAllocCache }

// AllocDone reports one completed allocation solve. Backend names the
// path that produced the allocation ("anneal" for the exact solve,
// "heuristic", or "cache" for a replayed exact hit); Phi is its exact
// objective.
// Seconds is wall-clock solve time — consumers that promise
// deterministic output must ignore it (the canonical fold does).
type AllocDone struct {
	Backend string
	Phi     float64
	Seconds float64
}

// Kind implements Event.
func (AllocDone) Kind() Kind { return KindAllocDone }

// JournalAppend reports one record committed durably to the service job
// journal: Record is "submit" for an accepted job or the status the
// transition landed on ("queued", "running", "done", "failed"); Bytes is
// the payload size. The append sequence for a given request sequence is
// deterministic, so the metric fold preserves registry determinism.
type JournalAppend struct {
	Record string
	Bytes  int
}

// Kind implements Event.
func (JournalAppend) Kind() Kind { return KindJournal }

// SchedCache reports one pipeline-level schedule-cache lookup: Outcome
// is "hit" (a memoized allocate→schedule pair replayed without touching
// the solver or the PSA) or "miss". The cache never seeds a solve —
// exact replay or nothing — so the outcome sequence is deterministic
// for a given request sequence and folding it preserves registry
// determinism.
type SchedCache struct {
	Outcome string
}

// Kind implements Event.
func (SchedCache) Kind() Kind { return KindSchedCache }

// Multi fans every event out to each non-nil observer. A result of nil
// (no observers) preserves the nil fast path at the emit sites.
func Multi(obs ...Observer) Observer {
	flat := make(multi, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			flat = append(flat, o)
		}
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return flat
}

type multi []Observer

// Observe implements Observer.
func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// Recorder is an Observer that collects every event in memory, for the
// trace exporter and for tests. Safe for concurrent emitters; the
// recorded order is emission order, which for events produced by
// worker-pool stages is nondeterministic — consumers needing stable
// output sort by the events' intrinsic coordinates (see trace.WriteUnified).
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observe implements Observer.
func (r *Recorder) Observe(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a snapshot copy of the recorded events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}
