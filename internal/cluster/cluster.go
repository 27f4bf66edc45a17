// Package cluster is the shared-clock multi-job simulator: a stream of
// MDG jobs arriving over virtual time, routed onto partitions of one
// processor pool, surviving pool-scoped processor failures.
//
// The paper schedules one MDG on a reliable, dedicated machine. This
// package drops both assumptions at once: many jobs share the pool
// (pluggable routers decide who gets which partition), and fail-stop
// deaths hit the *pool* rather than a job — the owning job's partition
// shrinks under it and the per-job recovery driver replans onto the
// survivors, while the pool health model (alive → suspect → dead with a
// deterministic detection latency) decides when the cluster itself
// stops assigning the processor.
//
// Determinism is the design invariant. The loop runs on a virtual
// clock with a single event heap ordered by (time, kind, sequence);
// fault schedules and arrival processes are seeded; routers are
// constructed fresh per run. Run is therefore a pure function of
// (specs, Options) — the same inputs give a byte-identical
// Outcome.String(), which is what makes counterfactual replay ("what if
// this job had gotten 32 processors instead of 16") a meaningful
// comparison rather than a rerun that happens to differ.
//
// Fault translation happens at placement. The pool fault plan is
// static and seeded, so when a job is placed at virtual time T on pool
// processors P, every pool ProcFail targeting a member of P becomes a
// partition-relative ProcFail at max(0, At-T) in the job's own plan —
// including deaths that already happened in fact but are not yet
// detected (the suspect state), which the job sees as a relative-time-0
// death and recovers from internally. The job then runs exactly once
// through the per-job pipeline; the cluster loop never re-runs it at
// fault events, it only does pool bookkeeping when the detector fires.
package cluster

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strings"

	"paradigm/internal/fault"
	"paradigm/internal/obs"
)

// Spec describes one job submitted to the cluster.
type Spec struct {
	// ID names the job; unique within a run.
	ID string
	// Class is the SLO class label ("gold"/"silver"/"bronze" by
	// convention); Priority orders admission and shedding (higher wins).
	Class    string
	Priority int
	// Arrive is the virtual arrival time (>= 0, finite).
	Arrive float64
	// Procs is the requested partition size; MinProcs (default 1) is the
	// smallest partition the job accepts under degradation.
	Procs, MinProcs int
	// Payload carries the job body (the root glue stores the *Program);
	// the cluster loop never inspects it.
	Payload any
}

func (s Spec) minProcs() int {
	if s.MinProcs > 0 {
		return s.MinProcs
	}
	return 1
}

// RunOutcome is what a Runner reports for one completed job.
type RunOutcome struct {
	// Duration is the job's virtual running time on its partition,
	// recovery included.
	Duration float64
	// Digest identifies the job's output data; the chaos gate requires
	// it byte-identical to the job's fault-free reference.
	Digest string
	// Recovered/Attempts mirror the per-job recovery driver's report.
	Recovered bool
	Attempts  int
}

// Runner executes one job on a partition. The cluster loop is
// model-agnostic: the root package provides the paper-pipeline
// implementation, tests provide fakes.
type Runner interface {
	// Run executes spec on procs processors under a partition-relative
	// fault plan (nil = fault-free). It is called once per placement.
	Run(spec Spec, procs int, plan *fault.Plan) (RunOutcome, error)
	// Predict estimates the objective Φ (average per-processor time) of
	// running spec on procs processors — the best-fit router's cost
	// surface. NaN/Inf means "unknown".
	Predict(spec Spec, procs int) float64
}

// Options configures a cluster run.
type Options struct {
	// Procs is the pool size (required, >= 1).
	Procs int
	// Router names the routing policy: "round-robin" (default),
	// "least-loaded", or "best-fit".
	Router string
	// Faults is the pool-scoped fault plan. Only ProcFails are legal:
	// message faults and stragglers are job-scoped coordinates that have
	// no meaning at pool scope.
	Faults *fault.Plan
	// DetectLatency is the deterministic failure-detection delay: a
	// processor that dies at t is suspect (failed in fact, still
	// assignable) until t+DetectLatency, dead after.
	DetectLatency float64
	// MaxPending bounds the admission queue; 0 = unbounded. When an
	// arrival would exceed it, the lowest-(priority, latest-arrival)
	// pending job is shed.
	MaxPending int
	// Runner executes jobs (required).
	Runner Runner
	// Observer receives obs.ClusterDecision and obs.PoolHealth events.
	Observer obs.Observer
	// Overrides forces the requested partition size per job ID — the
	// counterfactual replay knob.
	Overrides map[string]int
}

// JobResult records one completed (or failed) job.
type JobResult struct {
	ID, Class             string
	Arrive, Start, Finish float64
	Requested, Granted    int
	Degraded              bool
	Procs                 []int
	Digest                string
	Recovered             bool
	Attempts              int
	Err                   string
}

// Decision is one entry of the routing/placement decision trace.
type Decision struct {
	Seq       int
	Time      float64
	Decision  string
	Job       string
	Proc      int
	Requested int
	Granted   int
}

// Outcome is the full deterministic record of a cluster run.
type Outcome struct {
	Procs     int
	Router    string
	FinalTime float64
	// Jobs is in completion order; Shed and Evicted in decision order.
	Jobs      []JobResult
	Shed      []string
	Evicted   []string
	Decisions []Decision
	// Utilization is Σ busy processor-time / (Procs · FinalTime).
	Utilization float64
}

// String renders the outcome as a canonical byte-stable text: two runs
// with identical inputs produce identical strings, which is the replay
// determinism gate.
func (o *Outcome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster procs=%d router=%s final=%g util=%.6f\n",
		o.Procs, o.Router, o.FinalTime, o.Utilization)
	for _, j := range o.Jobs {
		fmt.Fprintf(&b, "job id=%s class=%s arrive=%g start=%g finish=%g req=%d granted=%d degraded=%t procs=%v recovered=%t attempts=%d digest=%s err=%q\n",
			j.ID, j.Class, j.Arrive, j.Start, j.Finish, j.Requested, j.Granted,
			j.Degraded, j.Procs, j.Recovered, j.Attempts, j.Digest, j.Err)
	}
	for _, id := range o.Shed {
		fmt.Fprintf(&b, "shed id=%s\n", id)
	}
	for _, id := range o.Evicted {
		fmt.Fprintf(&b, "evicted id=%s\n", id)
	}
	for _, d := range o.Decisions {
		fmt.Fprintf(&b, "decision seq=%d t=%g %s job=%s proc=%d req=%d granted=%d\n",
			d.Seq, d.Time, d.Decision, d.Job, d.Proc, d.Requested, d.Granted)
	}
	return b.String()
}

// Job looks a completed job up by ID.
func (o *Outcome) Job(id string) (JobResult, bool) {
	for _, j := range o.Jobs {
		if j.ID == id {
			return j, true
		}
	}
	return JobResult{}, false
}

// Event kinds, in tie-break order at one virtual instant: a death is
// in force before anything else happening at that time, detection
// precedes job completion (a job finishing at the detect instant has
// already absorbed the fault internally), completions free capacity
// before new arrivals claim it.
const (
	evFail = iota
	evDetect
	evFinish
	evArrive
)

type event struct {
	time float64
	kind int
	seq  int
	proc int    // evFail/evDetect
	job  string // evFinish
	spec int    // evArrive: index into specs
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

type pendingJob struct {
	spec Spec
	seq  int // arrival order, the FIFO tie-break within a priority
}

type placedJob struct {
	spec         Spec
	procs        []int
	start        float64
	req, granted int
	degraded     bool
	out          RunOutcome
	err          error
}

type state struct {
	o    Options
	pool *Pool

	pending []pendingJob
	placed  map[string]*placedJob

	events  eventHeap
	evSeq   int
	decSeq  int
	outcome *Outcome
}

func (st *state) push(e event) {
	e.seq = st.evSeq
	st.evSeq++
	heap.Push(&st.events, e)
}

func (st *state) emit(e obs.Event) {
	if st.o.Observer != nil {
		st.o.Observer.Observe(e)
	}
}

func (st *state) decide(t float64, decision, job string, proc, req, granted int) {
	st.outcome.Decisions = append(st.outcome.Decisions, Decision{
		Seq: st.decSeq, Time: t, Decision: decision, Job: job,
		Proc: proc, Requested: req, Granted: granted,
	})
	st.decSeq++
	st.emit(obs.ClusterDecision{
		Decision: decision, Job: job, Router: st.pool.router.Name(),
		Requested: req, Granted: granted, Time: t,
	})
}

// Run executes the cluster simulation over specs and returns its full
// deterministic record.
func Run(specs []Spec, o Options) (*Outcome, error) {
	if o.Procs < 1 {
		return nil, fmt.Errorf("cluster: Procs = %d, want >= 1", o.Procs)
	}
	if o.Runner == nil {
		return nil, fmt.Errorf("cluster: Options.Runner is required")
	}
	if o.DetectLatency < 0 || math.IsNaN(o.DetectLatency) || math.IsInf(o.DetectLatency, 0) {
		return nil, fmt.Errorf("cluster: DetectLatency = %v, want finite and >= 0", o.DetectLatency)
	}
	if o.Faults != nil {
		if len(o.Faults.MsgFaults) > 0 || len(o.Faults.Stragglers) > 0 {
			return nil, fmt.Errorf("cluster: pool fault plans take ProcFails only — message faults and stragglers are job-scoped")
		}
		if err := o.Faults.Validate(o.Procs); err != nil {
			return nil, fmt.Errorf("cluster: pool fault plan: %w", err)
		}
	}
	pool, err := NewPool(o.Procs, o.Router)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(specs))
	for i, s := range specs {
		if s.ID == "" {
			return nil, fmt.Errorf("cluster: spec %d has no ID", i)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("cluster: duplicate job ID %q", s.ID)
		}
		seen[s.ID] = true
		if s.Procs < 1 {
			return nil, fmt.Errorf("cluster: job %q requests %d processors, want >= 1", s.ID, s.Procs)
		}
		if s.minProcs() > s.Procs {
			return nil, fmt.Errorf("cluster: job %q has MinProcs %d > Procs %d", s.ID, s.MinProcs, s.Procs)
		}
		if s.Arrive < 0 || math.IsNaN(s.Arrive) || math.IsInf(s.Arrive, 0) {
			return nil, fmt.Errorf("cluster: job %q arrival %v, want finite and >= 0", s.ID, s.Arrive)
		}
	}

	st := &state{
		o:      o,
		pool:   pool,
		placed: map[string]*placedJob{},
		outcome: &Outcome{
			Procs: o.Procs, Router: pool.router.Name(),
		},
	}
	heap.Init(&st.events)
	if o.Faults != nil {
		for _, f := range o.Faults.ProcFails {
			st.push(event{time: f.At, kind: evFail, proc: f.Proc})
			st.push(event{time: f.At + o.DetectLatency, kind: evDetect, proc: f.Proc})
		}
	}
	// Arrivals enter the heap in input order; the heap's (time, kind,
	// seq) order makes same-instant arrivals FIFO by submission.
	for i, s := range specs {
		st.push(event{time: s.Arrive, kind: evArrive, spec: i})
	}

	arrivalSeq := 0
	for st.events.Len() > 0 {
		e := heap.Pop(&st.events).(event)
		if e.time > st.outcome.FinalTime {
			st.outcome.FinalTime = e.time
		}
		switch e.kind {
		case evFail:
			// The processor failed in fact. Nothing is rerouted yet: the
			// cluster has not noticed. A job already holding it carries
			// the matching partition-relative fault from placement time.
			st.pool.Suspect(e.proc)
			st.emit(obs.PoolHealth{Proc: e.proc, State: "suspect", Time: e.time})
		case evDetect:
			if !st.pool.Retire(e.proc) {
				break
			}
			st.emit(obs.PoolHealth{Proc: e.proc, State: "dead", Time: e.time})
			st.decide(e.time, "replace", st.pool.owner[e.proc], e.proc, -1, -1)
			st.place(e.time, "")
		case evFinish:
			pj := st.placed[e.job]
			st.pool.Release(pj.procs)
			jr := JobResult{
				ID: pj.spec.ID, Class: pj.spec.Class,
				Arrive: pj.spec.Arrive, Start: pj.start, Finish: e.time,
				Requested: pj.req, Granted: pj.granted, Degraded: pj.degraded,
				Procs:  pj.procs,
				Digest: pj.out.Digest, Recovered: pj.out.Recovered, Attempts: pj.out.Attempts,
			}
			if pj.err != nil {
				jr.Err = pj.err.Error()
			}
			st.outcome.Jobs = append(st.outcome.Jobs, jr)
			st.decide(e.time, "finish", pj.spec.ID, -1, pj.req, pj.granted)
			st.place(e.time, "")
		case evArrive:
			s := specs[e.spec]
			st.pending = append(st.pending, pendingJob{spec: s, seq: arrivalSeq})
			arrivalSeq++
			if o.MaxPending > 0 && len(st.pending) > o.MaxPending {
				st.shed(e.time)
			}
			st.place(e.time, s.ID)
		}
	}
	if len(st.pending) > 0 {
		return nil, fmt.Errorf("cluster: %d jobs still pending with no events left (placement livelock)", len(st.pending))
	}
	if st.outcome.FinalTime > 0 {
		total := 0.0
		for _, b := range st.pool.busy {
			total += b
		}
		st.outcome.Utilization = total / (float64(o.Procs) * st.outcome.FinalTime)
	}
	return st.outcome, nil
}

// shed drops the least-deserving pending job: lowest priority, then
// latest arrival — the SLO-class shedding rule (class maps to priority).
func (st *state) shed(t float64) {
	worst := 0
	for i := 1; i < len(st.pending); i++ {
		w, c := st.pending[worst], st.pending[i]
		if c.spec.Priority < w.spec.Priority ||
			(c.spec.Priority == w.spec.Priority && c.seq > w.seq) {
			worst = i
		}
	}
	victim := st.pending[worst]
	st.pending = append(st.pending[:worst], st.pending[worst+1:]...)
	st.outcome.Shed = append(st.outcome.Shed, victim.spec.ID)
	st.decide(t, "shed", victim.spec.ID, -1, victim.spec.Procs, 0)
}

// place runs one admission scan at time t: pending jobs in (priority
// desc, arrival asc) order, each placed, degraded, evicted, or left
// pending. arrived names the job whose arrival triggered the scan, so a
// failed first attempt is traced as one "requeue" decision without
// re-tracing every waiter on every scan.
func (st *state) place(t float64, arrived string) {
	order := make([]int, len(st.pending))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := st.pending[order[a]], st.pending[order[b]]
		if pa.spec.Priority != pb.spec.Priority {
			return pa.spec.Priority > pb.spec.Priority
		}
		return pa.seq < pb.seq
	})
	taken := map[int]bool{}
	for _, idx := range order {
		pj := st.pending[idx]
		s := pj.spec
		req := s.Procs
		if forced, ok := st.o.Overrides[s.ID]; ok && forced > 0 {
			req = forced
		}
		minP := s.minProcs()
		if minP > req {
			minP = req
		}
		assignable := st.pool.Assignable()
		if assignable < minP {
			taken[idx] = true
			st.outcome.Evicted = append(st.outcome.Evicted, s.ID)
			st.decide(t, "evict", s.ID, -1, req, 0)
			continue
		}
		nfree := len(st.pool.Free())
		grant := 0
		degraded := false
		switch {
		case nfree >= req:
			grant = req
		case assignable < req && nfree >= minP:
			// The pool can never satisfy the full request again: shrink
			// rather than wait forever.
			grant = nfree
			if grant > req {
				grant = req
			}
			degraded = true
		default:
			if s.ID == arrived {
				st.decide(t, "requeue", s.ID, -1, req, 0)
			}
			continue
		}
		procs := st.pool.Place(s, grant, minP, func(k int) float64 {
			return st.o.Runner.Predict(s, k)
		})
		st.launch(t, s, procs, req, degraded)
		taken[idx] = true
	}
	if len(taken) > 0 {
		var rest []pendingJob
		for i, pj := range st.pending {
			if !taken[i] {
				rest = append(rest, pj)
			}
		}
		st.pending = rest
	}
}

// launch translates the pool fault plan into the job's
// partition-relative plan, runs the job once, and schedules its finish.
func (st *state) launch(t float64, s Spec, procs []int, req int, degraded bool) {
	var plan *fault.Plan
	if st.o.Faults != nil {
		local := make(map[int]int, len(procs))
		for i, q := range procs {
			local[q] = i
		}
		for _, f := range st.o.Faults.ProcFails {
			idx, mine := local[f.Proc]
			if !mine {
				continue
			}
			if plan == nil {
				plan = &fault.Plan{}
			}
			plan.ProcFails = append(plan.ProcFails, fault.ProcFail{
				Proc: idx, At: math.Max(0, f.At-t),
			})
		}
		if plan != nil {
			sort.Slice(plan.ProcFails, func(a, b int) bool {
				return plan.ProcFails[a].Proc < plan.ProcFails[b].Proc
			})
		}
	}
	out, err := st.o.Runner.Run(s, len(procs), plan)
	dur := out.Duration
	if err != nil || !(dur > 0) || math.IsInf(dur, 0) || math.IsNaN(dur) {
		dur = 0
	}
	pj := &placedJob{
		spec: s, procs: procs, start: t,
		req: req, granted: len(procs), degraded: degraded,
		out: out, err: err,
	}
	st.placed[s.ID] = pj
	st.pool.Charge(procs, dur)
	kind := "place"
	if degraded {
		kind = "degrade"
	}
	st.decide(t, kind, s.ID, -1, req, len(procs))
	st.push(event{time: t + dur, kind: evFinish, job: s.ID})
}

// Replay reruns the simulation with per-job partition-size overrides —
// the counterfactual: "what if job X had gotten k processors". The
// replay is a full deterministic re-simulation, so downstream effects
// (different queue waits, different fault exposure) are reflected, not
// approximated.
func Replay(specs []Spec, o Options, overrides map[string]int) (*Outcome, error) {
	merged := make(map[string]int, len(o.Overrides)+len(overrides))
	for id, k := range o.Overrides {
		merged[id] = k
	}
	for id, k := range overrides {
		merged[id] = k
	}
	o.Overrides = merged
	return Run(specs, o)
}
