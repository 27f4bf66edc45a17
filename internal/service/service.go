// Package service is paradigmd's job machine: it accepts
// allocation-and-scheduling jobs over HTTP, runs them through the
// PARADIGM pipeline on a pool of workers, and serves their status,
// schedules and the metrics registry — with the library's crash-safety
// surface wired through (per-job write-ahead checkpoints, per-stage
// budgets, a shared circuit breaker around the convex solve, and panic
// containment at every boundary).
//
// With a checkpoint directory the service itself is crash-safe: every
// accepted submit and every status transition is committed to a durable
// tenant-sharded job journal (jobs-shard-NNN.journal files, same
// CRC/commit-pointer discipline as the per-job WALs) before it is
// acknowledged. On restart every shard is replayed: finished jobs are
// reloaded with their result digests, unfinished ones are re-enqueued
// and resume from their committed per-job WAL stages, and a corrupt
// shard is refused with a typed error rather than silently dropping
// accepted work. The journal is what makes an acknowledged job durable;
// a job's WAL is a resume optimisation, and its file exists only from
// the first stage worth resuming from — an allocation a solver produced,
// or a recovery salvage. A job whose plan replayed from a cache writes
// none: re-run from scratch after a crash it reaches the same digest in
// less time than the WAL took to write. Completed jobs' WALs are
// garbage-collected on committed completion (WALRetain "failed" keeps
// failed jobs' WALs for postmortem).
//
// Multi-tenancy (DESIGN.md §15): jobs carry a tenant name, admission is
// governed by a policy (Config.Policy) declaring SLO classes, per-tenant
// token buckets, and the queue discipline (fcfs, priority-fcfs, or sjf
// by predicted Φ). A tenant over its bucket is refused with 429 while
// other tenants proceed. Identical concurrent submissions from one
// tenant coalesce onto a single in-flight solve — every acknowledged job
// is journaled and reaches the same digest-verified result — and a
// pipeline-level schedule cache (256 plans) replays repeated
// allocate→schedule plans byte-identically without solving. /metrics
// reports per-tenant admission/queue/completion series and the Jain
// fairness index over completed jobs.
//
// Endpoints:
//
//	POST /jobs               {"program":"cmm","size":32,"procs":8}  -> 202 {"id":...}
//	                         optional: "tenant", "recover", "retries", "fault_seed";
//	                         size and procs at most 1024 (400 beyond); procs 1
//	                         with fault_seed and recover > 0 is 400 (it can only fail)
//	GET  /jobs               job summaries, submission order (X-Tenant scopes)
//	GET  /jobs/{id}          one job's status, result summary, digest
//	GET  /jobs/{id}/schedule the finished schedule (text table)
//	GET  /metrics            metrics registry, deterministic text form
//	GET  /healthz            JSON health: ok (200) | degraded (200) | draining (503)
//	                         with queue depth, journal lag, breaker state
//
// Any other method on these paths is refused with 405. A full submit
// queue sheds with 429, an oversized body with 413, and a draining
// server with 503: Drain stops admission and lets every accepted job
// finish.
package service

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paradigm"
	"paradigm/internal/admission"
	"paradigm/internal/jobstore"
	"paradigm/internal/schedcache"
)

// Submit-path limits, WAL retention policies and fixed settings.
const (
	// maxSubmitBytes bounds the submit body; larger requests are refused
	// with 413 instead of silently truncated into JSON decode errors.
	maxSubmitBytes = 1 << 16
	// defaultRetries is a job's allocation retry budget unless its
	// retries field says otherwise; maxRetryBudget caps that field.
	defaultRetries = 2
	maxRetryBudget = 8
	// maxSize and maxProcs bound a submitted job at the HTTP edge, so a
	// request cannot park a worker on a 10¹²-element matrix. Every
	// journaled job replays regardless.
	maxSize  = 1024
	maxProcs = 1024

	retainAll    = "all"
	retainFailed = "failed"
	retainNone   = "none"

	// journalShards is the tenant-sharded job journal's shard count for a
	// new checkpoint directory; existing shard files are always adopted.
	journalShards = 4

	// defaultTenant scopes jobs submitted without a tenant name.
	defaultTenant = "default"

	// programCacheCap bounds the built programs the server keeps to share
	// among jobs; a program is a few kB of graph and node specs.
	programCacheCap = 64
)

// Config is every setting of a Server; New validates it.
type Config struct {
	// CheckpointDir holds the durable job journal and the per-job
	// write-ahead checkpoint logs (empty: no durability).
	CheckpointDir string
	// QueueCap bounds the submit queue; a full queue sheds with 429.
	QueueCap int
	// StageBudget is the deadline of every pipeline stage (0: unbounded).
	StageBudget time.Duration
	// WALRetain is which per-job WALs outlive a terminal state: all,
	// failed (for postmortem), or none.
	WALRetain string
	// Policy declares the tenants, SLO classes and queue discipline (zero:
	// unlimited FCFS).
	Policy admission.Config
	// ClusterProcs > 0 runs jobs on partitions of one shared pool of that
	// many processors; a partition is a processor count, run on the
	// server's machine. Every ClusterFaults-th placement loses a partition
	// processor (0: none).
	ClusterProcs  int
	ClusterFaults int
}

// JobView is a job's status as the API returns it.
type JobView struct {
	ID      string  `json:"id"`
	Program string  `json:"program"`
	Size    int     `json:"size"`
	Procs   int     `json:"procs"`
	Tenant  string  `json:"tenant,omitempty"`
	Class   string  `json:"class,omitempty"`
	Status  string  `json:"status"` // queued | running | done | failed
	Error   string  `json:"error,omitempty"`
	Phi     float64 `json:"phi,omitempty"`
	Actual  float64 `json:"actual,omitempty"`
	// Digest fingerprints the deterministic result content; it survives
	// restarts through the job journal.
	Digest string `json:"digest,omitempty"`
	// Coalesced marks a job that joined another job's in-flight solve
	// instead of solving itself; its digest is the leader's.
	Coalesced bool `json:"coalesced,omitempty"`
	// Granted is the partition size the cluster pool actually granted
	// (cluster mode only); Degraded marks a grant shrunk below the
	// request because live capacity had dropped.
	Granted  int  `json:"granted,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
}

// HealthView is the /healthz body.
type HealthView struct {
	State            string `json:"state"` // ok | degraded | draining
	QueueDepth       int    `json:"queue_depth"`
	QueueCap         int    `json:"queue_cap"`
	JournalLag       int    `json:"journal_lag"`
	Breaker          string `json:"breaker"`
	RecoveredPending int    `json:"recovered_pending"`
}

type job struct {
	JobView
	// sub is the accepted request as journaled, with its id, tenant and
	// class filled in by the server.
	sub jobstore.Submit
	// sched and p are what GET /jobs/{id}/schedule renders: the job's
	// schedule and the program it indexes — the interned submitted program,
	// or after a recovery the residual one. Nothing else of the pipeline's
	// Result outlives the digest — the simulated machine state is
	// megabytes a job, and no endpoint serves it.
	sched *paradigm.Schedule
	p     *paradigm.Program
	// recovered marks a job re-enqueued from the journal at boot; the
	// service reports degraded until this backlog clears.
	recovered bool
	// followers are same-tenant jobs coalesced onto this in-flight job;
	// they receive this job's result when it completes (under s.mu).
	followers []*job
}

// tenantState is one tenant's admission and accounting state (bucket is
// internally locked; counters are guarded by s.mu).
type tenantState struct {
	class    string
	priority int
	bucket   *admission.Bucket
	// queued counts this tenant's jobs not yet terminal (queue depth
	// including coalesced followers); completed/rejected feed the
	// fairness and admission series.
	queued    int
	completed uint64
	rejected  uint64
}

// Server is the job machine: admission, the queue, the workers, the
// journal and the HTTP API over them.
type Server struct {
	mach paradigm.MachineBackend
	// cfg is the validated configuration; at boot QueueCap grows to fit
	// the recovered backlog.
	cfg        Config
	budgets    paradigm.StageBudgets
	breaker    *paradigm.Breaker
	reg        *paradigm.Metrics
	obs        paradigm.Observer
	allocCache *paradigm.AllocCache
	schedCache *paradigm.ScheduleCache
	// programs interns built programs by kind and size. A Program is
	// frozen once built — nothing in the pipeline writes through one — so
	// every job of a spec shares one, and its graph's adjacency index and
	// canonical hash are derived once, not once per job.
	programs *schedcache.Cache[*paradigm.Program]
	journal  *jobstore.Sharded
	// pool is the shared wall-clock processor pool; non-nil iff the
	// service runs in cluster mode.
	pool *clusterPool

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string
	next    int
	tenants map[string]*tenantState
	// inflight maps tenant+specKey to the queued-or-running job later
	// identical submits coalesce onto.
	inflight map[string]*job
	// phiBySpec caches each spec's last solved Φ for SJF ordering.
	phiBySpec map[string]float64

	queue    *admission.Queue
	draining atomic.Bool
	wg       sync.WaitGroup
	done     atomic.Uint64
	// backlog counts boot-recovered jobs not yet terminal.
	backlog atomic.Int64
}

// New validates cfg and boots a server on mach: with a checkpoint
// directory it replays the job journal, reloading finished jobs and
// queueing unfinished ones. No worker runs until Start.
func New(mach paradigm.MachineBackend, cfg Config) (*Server, error) {
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("queue capacity %d: want at least 1", cfg.QueueCap)
	}
	switch cfg.WALRetain {
	case retainAll, retainFailed, retainNone:
	default:
		return nil, fmt.Errorf("WAL retention %q: want all, failed, or none", cfg.WALRetain)
	}
	if cfg.ClusterProcs < 0 || cfg.ClusterFaults < 0 {
		return nil, fmt.Errorf("cluster procs %d, faults every %d placements: want non-negative", cfg.ClusterProcs, cfg.ClusterFaults)
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	queuePol, err := admission.ParsePolicy(cfg.Policy.QueuePolicy)
	if err != nil {
		return nil, err
	}
	reg := paradigm.NewMetrics()
	// An info-style gauge surfaces the resolved machine on /metrics.
	reg.Gauge(fmt.Sprintf("paradigmd_machine_info{name=%q,kind=%q}", mach.Name(), mach.Kind())).Set(1)
	b := cfg.StageBudget
	s := &Server{
		mach:    mach,
		cfg:     cfg,
		budgets: paradigm.StageBudgets{Allocate: b, Schedule: b, Codegen: b, Execute: b},
		breaker: paradigm.NewBreaker(paradigm.BreakerOptions{}),
		reg:     reg,
		// One shared allocation cache across jobs: resubmitting the same
		// program/size/procs replays the allocation instantly.
		allocCache: paradigm.NewAllocCache(128),
		// The pipeline-level schedule cache memoizes whole
		// allocate→schedule plans across jobs, 256 across 8 shards;
		// exact-only replay keeps journaled digests pure functions of the
		// spec.
		schedCache: paradigm.NewScheduleCache(256, 8),
		programs:   schedcache.NewOf[*paradigm.Program](programCacheCap, 1, nil),
		jobs:       map[string]*job{},
		tenants:    map[string]*tenantState{},
		inflight:   map[string]*job{},
		phiBySpec:  map[string]float64{},
	}
	if cfg.ClusterProcs > 0 {
		s.pool = newClusterPool(cfg, reg)
	}
	// The canonical fold contributes the deterministic counters
	// (alloc_cache_*, sched_cache_*, job_journal_*); the latency observer
	// adds the wall-clock per-backend solve histograms, which only a
	// service — not the deterministic library fold — is allowed to record.
	s.obs = paradigm.MultiObserver(paradigm.NewMetricsObserver(reg), allocLatencyObserver{reg})

	// Restart recovery: replay every shard of the durable job store,
	// reload finished jobs, and re-enqueue unfinished ones so they resume
	// from their committed per-job WAL stages. A corrupt shard refuses
	// boot.
	var pending []*job
	if cfg.CheckpointDir != "" {
		journal, states, err := jobstore.OpenSharded(cfg.CheckpointDir, journalShards, s.obs)
		if err != nil {
			return nil, err
		}
		s.journal = journal
		pending = s.reloadJournal(states)
		// The recovered backlog must be admissible regardless of the
		// configured bound; new submits still shed at the larger cap.
		s.cfg.QueueCap = max(cfg.QueueCap, len(pending))
	}
	s.queue = admission.NewQueue(queuePol, s.cfg.QueueCap)
	for _, j := range pending {
		if !s.queue.Push(s.queueItem(j)) {
			return nil, fmt.Errorf("recovered job %s did not fit the boot queue", j.ID)
		}
		s.backlog.Add(1)
		// Journal the re-queue so the journal reflects every transition,
		// restarts included. At boot an append failure is fatal: the
		// service must not accept work it cannot journal.
		if err := s.journal.AppendState(jobstore.State{ID: j.ID, Status: jobstore.StatusQueued}); err != nil {
			return nil, err
		}
	}
	s.updateLag()
	return s, nil
}

// QueueCap is the submit queue's bound: the configured one, or the
// recovered backlog when that was larger.
func (s *Server) QueueCap() int { return s.cfg.QueueCap }

// Backlog counts the jobs recovered at boot that are not yet terminal.
func (s *Server) Backlog() int64 { return s.backlog.Load() }

// Start launches the workers that run queued jobs.
func (s *Server) Start(workers int) {
	for range workers {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// Pop fails once the queue is closed and drained.
			for it, ok := s.queue.Pop(); ok; it, ok = s.queue.Pop() {
				s.runJob(it.Payload.(*job))
			}
		}()
	}
}

// Drain stops admission, lets the workers finish every accepted job,
// and returns when the queue is empty. The draining flag flips under
// the submit lock, so a racing submit either sees it (503) or has
// already pushed — Close only refuses later pushes and releases the
// workers once the backlog drains — and the post-wait sweep runs
// anything the exiting workers left behind, so an accepted job is
// never silently dropped.
func (s *Server) Drain() {
	s.mu.Lock()
	first := s.draining.CompareAndSwap(false, true)
	s.mu.Unlock()
	if first {
		s.queue.Close()
	}
	s.wg.Wait()
	for it, ok := s.queue.TryPop(); ok; it, ok = s.queue.TryPop() {
		s.runJob(it.Payload.(*job))
	}
}

// Completed counts the jobs that reached a terminal state since boot.
func (s *Server) Completed() uint64 { return s.done.Load() }

func (s *Server) runJob(j *job) {
	s.mu.Lock()
	j.Status = jobstore.StatusRunning
	s.mu.Unlock()
	s.journalState(jobstore.State{ID: j.ID, Status: jobstore.StatusRunning})

	run, err := s.execute(j.sub)
	// The digest hashes a JSON-encoded schedule: taken here, not under the
	// lock every submit and poll queues behind. With it taken, the
	// simulated machine state in the Result has no reader left.
	var digest string
	if err == nil {
		digest = run.res.Digest()
	}
	s.mu.Lock()
	j.Granted, j.Degraded = run.granted, run.degraded
	outcome := "paradigmd_jobs_completed_total"
	if err != nil {
		j.Status, j.Error = jobstore.StatusFailed, err.Error()
		outcome = "paradigmd_jobs_failed_total"
	} else {
		j.Status = jobstore.StatusDone
		// After a recovery the schedule indexes the residual program's
		// graph, not the submitted one: keep the program it describes.
		j.sched, j.p = run.res.Sched, run.res.Program
		j.Phi, j.Actual, j.Digest = run.res.Alloc.Phi, run.res.Actual, digest
		// Remember the solved Φ for SJF ordering of future submits.
		s.phiBySpec[specKey(j.sub)] = j.Phi
	}
	// Resolve the coalesced followers under the same lock that set the
	// leader terminal: each acknowledged follower receives the leader's
	// outcome, and the in-flight slot closes so later identical submits
	// start a fresh solve.
	terminal := append([]*job{j}, j.followers...)
	j.followers = nil
	key := inflightKey(j.sub)
	if s.inflight[key] == j {
		delete(s.inflight, key)
	}
	states := make([]jobstore.State, 0, len(terminal))
	for _, t := range terminal {
		t.Status, t.Error = j.Status, j.Error
		t.Phi, t.Actual, t.Digest = j.Phi, j.Actual, j.Digest
		t.sched, t.p = j.sched, j.p
		states = append(states, jobstore.State{
			ID: t.ID, Status: t.Status, Error: t.Error, Phi: t.Phi, Actual: t.Actual, Digest: t.Digest,
		})
		s.reg.Counter(outcome).Inc()
		ts := s.tenantFor(t.Tenant)
		if ts.queued > 0 {
			ts.queued--
		}
		if err == nil {
			ts.completed++
		}
	}
	recovered := j.recovered
	s.mu.Unlock()
	// The terminal transitions are journaled before the WAL becomes
	// eligible for collection: GC happens on *committed* completion.
	for _, fst := range states {
		s.journalState(fst)
	}
	if run.wal {
		s.gcWAL(j.ID, err == nil)
	}
	if recovered {
		s.backlog.Add(-1)
	}
	s.done.Add(uint64(len(terminal)))
}

// jobRun is what one execution of a job leaves behind. On failure only
// the grant and wal are meaningful.
type jobRun struct {
	res *paradigm.Result
	// granted and degraded are the cluster pool's grant: its size, and
	// whether it was shrunk below the request. Zero without a pool.
	granted  int
	degraded bool
	// wal reports that the job's write-ahead checkpoint has a file — it
	// solved or salvaged something, now or before a restart — so there is
	// one to apply the retention policy to.
	wal bool
}

// program returns the interned program for a kind and size, building it
// on first use. Two workers missing at once both build; the programs are
// equal and the later Put wins.
func (s *Server) program(kind string, size int) (*paradigm.Program, error) {
	key := kind + "|" + strconv.Itoa(size)
	if p, ok := s.programs.Get(key); ok {
		return p, nil
	}
	build := paradigm.ComplexMatMul
	switch kind {
	case "cmm":
	case "strassen":
		build = paradigm.Strassen
	default:
		return nil, fmt.Errorf("unknown program %q (want cmm or strassen)", kind)
	}
	p, err := build(size, s.mach)
	if err != nil {
		return nil, err
	}
	s.reg.Counter("paradigmd_programs_built_total").Inc()
	s.programs.Put(key, p)
	return p, nil
}

// execute runs one job through the full governed pipeline. Panic
// containment lives in the library: a malformed job comes back as a
// typed error, never as a worker crash. In cluster mode the job first
// acquires a partition from the shared pool (blocking until capacity
// frees, shrinking the grant when live capacity dropped below the
// request) and runs on exactly as many processors as granted.
func (s *Server) execute(sub jobstore.Submit) (run jobRun, err error) {
	p, err := s.program(sub.Program, sub.Size)
	if err != nil {
		return run, err
	}
	procs, faultLocal := sub.Procs, -1
	if s.pool != nil {
		g, err := s.pool.acquire(sub.Procs)
		if err != nil {
			return run, err
		}
		procs, faultLocal = g.procs, g.faultLocal
		run.granted, run.degraded = procs, g.degraded
		defer s.pool.release(g)
	}
	// Per-job retry budget: the request field overrides the default,
	// capped so a hostile submit cannot park a worker.
	attempts := defaultRetries
	if sub.Retries > 0 {
		attempts = min(sub.Retries, maxRetryBudget)
	}
	plan, err := s.faultPlan(sub, p, procs, faultLocal)
	if err != nil {
		return run, err
	}
	recoverMax := sub.Recover
	if faultLocal >= 0 && recoverMax < 1 {
		// The death is certain; recovery is not optional.
		recoverMax = 2
	}
	opts := []paradigm.Option{
		paradigm.WithObserver(s.obs),
		paradigm.WithAllocOptions(paradigm.AllocOptions{Cache: s.allocCache}),
		// Pipeline-level memoization: a repeated spec replays the whole
		// allocate→schedule plan without touching the solver.
		paradigm.WithScheduleCache(s.schedCache),
		paradigm.WithStageBudgets(s.budgets),
		paradigm.WithBreaker(s.breaker),
		paradigm.WithRetry(paradigm.RetryPolicy{MaxAttempts: attempts}),
		paradigm.WithFaultPlan(plan),
		paradigm.WithRecovery(recoverMax),
	}
	if dir := s.cfg.CheckpointDir; dir != "" {
		cp, err := paradigm.OpenDeferredCheckpoint(filepath.Join(dir, "job-"+sub.ID+".wal"))
		if err != nil {
			return run, err
		}
		// A checkpoint lists stages exactly when its file exists.
		resumed := len(cp.Stages()) > 0
		defer func() {
			run.wal = len(cp.Stages()) > 0
			if run.wal && !resumed {
				s.reg.Counter("paradigmd_wal_materialized_total").Inc()
			}
			cp.Close()
		}()
		opts = append(opts, paradigm.WithCheckpoint(cp))
	}
	run.res, err = paradigm.RunOnContext(context.Background(), p, s.mach, procs, opts...)
	return run, err
}

// faultPlan derives a job's deterministic fault schedule, its times
// scaled by the job's fault-free makespan on the procs it runs on; nil
// when the job is not faulted. A cluster-injected death (faultLocal >= 0)
// takes precedence over the request's seeded plan — the two cannot be
// merged without risking duplicate ProcFail entries on one processor —
// and kills that partition-local processor halfway through. A seeded
// plan delays one message, and kills one processor mid-run when the job
// asked for recovery. The fault-free pre-run primes the shared
// allocation cache, so the faulted run replays the identical allocation.
func (s *Server) faultPlan(sub jobstore.Submit, p *paradigm.Program, procs, faultLocal int) (*paradigm.FaultPlan, error) {
	if faultLocal < 0 && sub.FaultSeed == 0 {
		return nil, nil
	}
	clean, err := paradigm.RunOnContext(context.Background(), p, s.mach, procs,
		paradigm.WithAllocOptions(paradigm.AllocOptions{Cache: s.allocCache}))
	if err != nil {
		return nil, fmt.Errorf("fault-plan pre-run: %w", err)
	}
	if faultLocal >= 0 {
		return &paradigm.FaultPlan{ProcFails: []paradigm.ProcFail{{Proc: faultLocal, At: clean.Actual / 2}}}, nil
	}
	o := paradigm.FaultRandOptions{Procs: procs, MakespanHint: clean.Actual, MsgDelays: 1}
	if sub.Recover > 0 {
		o.ProcFails = 1
	}
	return paradigm.RandomFaultPlan(sub.FaultSeed, o)
}

// queueItem wraps a job for the admission queue with its class priority
// and predicted Φ (SJF ordering).
func (s *Server) queueItem(j *job) admission.Item {
	return admission.Item{Payload: j, Priority: s.tenantFor(j.Tenant).priority, Phi: s.predictPhi(j.sub)}
}

// tenantFor lazily materializes a tenant's admission state from the
// policy. Callers may hold s.mu; tenantFor takes no locks itself beyond
// the map (which s.mu guards) — boot and submit both reach it with the
// lock held or single-threaded.
func (s *Server) tenantFor(name string) *tenantState {
	if name == "" {
		name = defaultTenant
	}
	if ts, ok := s.tenants[name]; ok {
		return ts
	}
	contract := s.cfg.Policy.TenantContract(name)
	ts := &tenantState{
		class:    contract.Class,
		priority: s.cfg.Policy.PriorityOf(contract),
		bucket:   admission.NewBucket(contract.Rate, contract.Burst, nil),
	}
	s.tenants[name] = ts
	return ts
}

// specKey canonicalizes everything that determines the job's result,
// excluding the tenant: two jobs with equal spec keys produce
// byte-identical digests (the pipeline is deterministic).
func specKey(sub jobstore.Submit) string {
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d", sub.Program, sub.Size, sub.Procs, sub.Recover, sub.Retries, sub.FaultSeed)
}

// inflightKey scopes coalescing: only same-tenant, identical-spec
// submits may share a solve, so one tenant's result is never handed to
// another tenant's job.
func inflightKey(sub jobstore.Submit) string {
	return sub.Tenant + "|" + specKey(sub)
}

// predictPhi estimates a job's Φ for SJF ordering: the last solved Φ of
// the identical spec when known, else a work-scaling proxy (n³ flops
// spread over p processors; Strassen's seven-multiply recursion is
// cheaper than the classic eight).
func (s *Server) predictPhi(sub jobstore.Submit) float64 {
	if phi, ok := s.phiBySpec[specKey(sub)]; ok {
		return phi
	}
	n := float64(sub.Size)
	mult := 1.0
	if sub.Program == "strassen" {
		mult = 7.0 / 8
	}
	return mult * n * n * n / float64(sub.Procs)
}

// reloadJournal registers every journaled job: terminal jobs are
// reloaded with their journaled outcome (and their WALs GC'd per the
// retention policy), open jobs are returned for re-enqueueing. The id
// counter resumes past the highest journaled id.
func (s *Server) reloadJournal(states []jobstore.JobState) []*job {
	var pending []*job
	maxID := 0
	for _, st := range states {
		if st.Tenant == "" {
			// Pre-tenancy journal records scope to the default tenant.
			st.Tenant = defaultTenant
		}
		j := newJob(st.Submit)
		ts := s.tenantFor(j.Tenant)
		if id, err := strconv.Atoi(st.ID); err == nil && id > maxID {
			maxID = id
		}
		switch st.Status {
		case jobstore.StatusDone:
			j.Status = jobstore.StatusDone
			j.Phi, j.Actual, j.Digest = st.Phi, st.Actual, st.Digest
			ts.completed++
			s.reg.Counter("paradigmd_jobs_reloaded_total").Inc()
			// A crash between the journaled completion and the WAL GC
			// leaves an orphan WAL; collect it now.
			s.gcWAL(st.ID, true)
		case jobstore.StatusFailed:
			j.Status = jobstore.StatusFailed
			j.Error = st.Error
			s.reg.Counter("paradigmd_jobs_reloaded_total").Inc()
			s.gcWAL(st.ID, false)
		default:
			j.recovered = true
			ts.queued++
			pending = append(pending, j)
			s.reg.Counter("paradigmd_jobs_recovered_total").Inc()
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	s.next = maxID
	return pending
}

// newJob is the queued job of an accepted submit, its view drawn from
// the request.
func newJob(sub jobstore.Submit) *job {
	return &job{sub: sub, JobView: JobView{
		ID: sub.ID, Program: sub.Program, Size: sub.Size, Procs: sub.Procs,
		Tenant: sub.Tenant, Class: sub.Class, Status: jobstore.StatusQueued,
	}}
}

// allocLatencyObserver records wall-clock allocation solve latency per
// backend into the service registry ("paradigmd_alloc_seconds_<backend>").
// Wall time is nondeterministic by nature, so it lives here — the shared
// event fold deliberately ignores AllocDone.Seconds.
type allocLatencyObserver struct{ reg *paradigm.Metrics }

// solveLatencyBuckets cover µs-scale cache replays through multi-second
// solves.
var solveLatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

func (l allocLatencyObserver) Observe(e paradigm.Event) {
	if done, ok := e.(paradigm.AllocDoneEvent); ok {
		// Backend labels like "sched-cache" must be sanitized into metric
		// names the registry's identifier grammar accepts.
		name := strings.ReplaceAll("paradigmd_alloc_seconds_"+done.Backend, "-", "_")
		l.reg.Histogram(name, solveLatencyBuckets).Observe(done.Seconds)
	}
}

// journalState appends one status transition to the job journal. At
// runtime an append failure degrades durability but must not fail a job
// whose result is already correct: it is logged and counted instead.
func (s *Server) journalState(st jobstore.State) {
	if s.journal == nil {
		return
	}
	if err := s.journal.AppendState(st); err != nil {
		log.Printf("journal: %v", err)
		s.reg.Counter("paradigmd_journal_errors_total").Inc()
	}
	s.updateLag()
}

// updateLag publishes the journal backlog gauge.
func (s *Server) updateLag() {
	if s.journal != nil {
		s.reg.Gauge("paradigmd_journal_lag").Set(float64(s.journal.Lag()))
	}
}

// gcWAL applies the retention policy to a terminal job's WAL: completed
// jobs' WALs are deleted once the completion is journaled (fixing the
// unbounded per-job WAL leak), failed jobs' WALs are kept for
// postmortem under the default policy.
func (s *Server) gcWAL(id string, success bool) {
	dir, retain := s.cfg.CheckpointDir, s.cfg.WALRetain
	if dir == "" || retain == retainAll || (!success && retain != retainNone) {
		return
	}
	path := filepath.Join(dir, "job-"+id+".wal")
	if err := os.Remove(path); err == nil {
		s.reg.Counter("paradigmd_wal_gc_total").Inc()
	} else if !os.IsNotExist(err) {
		log.Printf("wal-gc %s: %v", path, err)
	}
}
