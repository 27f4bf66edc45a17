// Command paradigmd is a long-running, multi-tenant scheduling service
// over the PARADIGM pipeline: submit an allocation-and-scheduling job,
// poll its status, fetch the resulting schedule, and scrape the
// pipeline's metrics registry — with the crash-safety surface of the
// library wired through (a per-job write-ahead checkpoint for every job
// that solved or salvaged something, per-stage budgets, a shared circuit
// breaker around the convex solve, and panic containment at every
// boundary).
//
// With a -checkpoint-dir the service itself is crash-safe: every
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
// garbage-collected on committed completion (-wal-retain keeps failed
// jobs' WALs for postmortem by default).
//
// Multi-tenancy (DESIGN.md §15): jobs carry a tenant name, admission is
// governed by a strict JSON policy config (-policy) declaring SLO
// classes, per-tenant token buckets, and the queue discipline (fcfs,
// priority-fcfs, or sjf by predicted Φ). A tenant over its bucket is
// refused with 429 while other tenants proceed. Identical concurrent
// submissions from one tenant coalesce onto a single in-flight solve —
// every acknowledged job is journaled and reaches the same
// digest-verified result — and a pipeline-level schedule cache (256
// plans) replays repeated allocate→schedule plans byte-identically
// without solving. /metrics reports per-tenant admission/queue/completion
// series and the Jain fairness index over completed jobs.
//
// Every job is priced and simulated on one machine backend (-machine):
// the training-sets fits of a calibration for cm5 and paragon, the
// analytical model for any other builtin name or machine-spec file.
//
// Endpoints:
//
//	POST /jobs               {"program":"cmm","size":32,"procs":8}  -> 202 {"id":...}
//	                         optional: "tenant", "recover", "retries", "fault_seed";
//	                         size and procs at most 1024 (400 beyond)
//	GET  /jobs               job summaries, submission order (X-Tenant scopes)
//	GET  /jobs/{id}          one job's status, result summary, digest
//	GET  /jobs/{id}/schedule the finished schedule (text table)
//	GET  /metrics            metrics registry, deterministic text form
//	GET  /healthz            JSON health: ok (200) | degraded (200) | draining (503)
//	                         with queue depth, journal lag, breaker state
//
// -pprof addr serves net/http/pprof on a listener of its own, never on
// the job API's.
//
// Admission control: per-tenant token buckets shed over-rate tenants
// with 429; the submit queue is bounded and a full queue sheds load
// with 429; an oversized body is refused with 413; a draining server
// refuses with 503. SIGTERM/SIGINT starts a graceful drain — accepted
// jobs finish, new ones are refused, then the listener shuts down.
//
//	paradigmd -addr :8080 -workers 2 -queue 16 -checkpoint-dir /var/lib/paradigm -policy policy.json
//	paradigmd -smoke   # self-contained start/submit/poll/drain cycle
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"paradigm"
	"paradigm/internal/admission"
	"paradigm/internal/cluster"
	"paradigm/internal/jobstore"
	"paradigm/internal/schedcache"
)

// Submit-path limits and WAL retention policies.
const (
	// maxSubmitBytes bounds the submit body; larger requests are refused
	// with 413 instead of silently truncated into JSON decode errors.
	maxSubmitBytes = 1 << 16
	// maxRetryBudget caps a job's requested allocation retry budget.
	maxRetryBudget = 8
	// maxSize and maxProcs bound a submitted job at the HTTP edge, so a
	// request cannot park a worker on a 10¹²-element matrix. Every
	// journaled job replays regardless.
	maxSize  = 1024
	maxProcs = 1024

	retainAll    = "all"
	retainFailed = "failed"
	retainNone   = "none"

	// defaultTenant scopes jobs submitted without a tenant name.
	defaultTenant = "default"

	// programCacheCap bounds the built programs the server keeps to share
	// among jobs; a program is a few kB of graph and node specs.
	programCacheCap = 64
	// gcPercent is the collector setting main applies unless GOGC is set.
	// A finished job retains a few kB, so the live heap is a few MB and
	// the default of 100 collects every few hundred hot jobs; the heap of
	// retained simulator results that used to space collections out by
	// accident is gone, so the spacing is asked for.
	gcPercent = 400
)

func main() {
	var o runOpts
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.IntVar(&o.workers, "workers", 2, "concurrent pipeline workers")
	flag.IntVar(&o.queueCap, "queue", 16, "bounded submit queue size (full: 429)")
	flag.StringVar(&o.ckptDir, "checkpoint-dir", "", "directory for the durable job journals and per-job write-ahead checkpoint logs (empty: no durability)")
	flag.StringVar(&o.machine, "machine", "cm5", "machine: a builtin name (cm5, paragon, cm5-hetero8, paragon-memcap8) or a path to a machine-spec JSON file")
	flag.DurationVar(&o.budget, "stage-budget", 0, "per-stage deadline applied to every pipeline stage (0: unbounded)")
	flag.StringVar(&o.walRetain, "wal-retain", retainFailed, "per-job WALs kept after a terminal state: all, failed (postmortem default), or none")
	flag.IntVar(&o.retries, "retries", 2, "default per-job allocation retry budget (a job's retries field overrides, capped at 8)")
	flag.StringVar(&o.policyPath, "policy", "", "admission policy config JSON (tenants, SLO classes, queue discipline; empty: unlimited FCFS)")
	flag.IntVar(&o.shards, "journal-shards", 4, "tenant-sharded job journal count (existing shards are always adopted)")
	flag.IntVar(&o.clusterProcs, "cluster-procs", 0, "cluster mode: run jobs on partitions of one shared processor pool of this size (0: off)")
	flag.StringVar(&o.router, "router", "round-robin", "cluster mode partition router: round-robin, least-loaded, or best-fit (the partition size is fixed before routing, so best-fit places the lowest free processors)")
	flag.IntVar(&o.clusterFaults, "cluster-faults", 0, "cluster mode: kill one partition processor on every Nth placement; the job recovers onto survivors and the processor retires from the pool (0: none)")
	flag.BoolVar(&o.smoke, "smoke", false, "start, run one job end to end, drain, and exit (CI smoke mode)")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address, on a listener separate from -addr (empty: off)")
	flag.Parse()
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "paradigmd:", err)
		os.Exit(1)
	}
}

// runOpts is the service's resolved command line.
type runOpts struct {
	addr, machine, ckptDir    string
	policyPath, walRetain     string
	pprofAddr                 string
	workers, queueCap, shards int
	budget                    time.Duration
	retries                   int
	clusterProcs              int
	router                    string
	clusterFaults             int
	smoke                     bool
}

func run(o runOpts) error {
	if o.workers < 1 || o.queueCap < 1 {
		return fmt.Errorf("need at least one worker and a positive queue size")
	}
	switch o.walRetain {
	case retainAll, retainFailed, retainNone:
	default:
		return fmt.Errorf("-wal-retain %q: want all, failed, or none", o.walRetain)
	}
	var policy admission.Config
	if o.policyPath != "" {
		data, err := os.ReadFile(o.policyPath)
		if err != nil {
			return fmt.Errorf("-policy %s: %w", o.policyPath, err)
		}
		if policy, err = admission.Decode(data); err != nil {
			return fmt.Errorf("-policy %s: %w", o.policyPath, err)
		}
	}
	mach, err := machineBackend(o.machine)
	if err != nil {
		return err
	}
	srv, err := newServer(mach, serverConfig{
		ckptDir: o.ckptDir, queueCap: o.queueCap, shards: o.shards,
		budget: o.budget, walRetain: o.walRetain, retries: o.retries, policy: policy,
		cluster: clusterConfig{procs: o.clusterProcs, router: o.router, faultEvery: o.clusterFaults},
	})
	if err != nil {
		return err
	}
	if srv.pool != nil {
		log.Printf("cluster mode: %d-processor pool, %s router, fault every %d placements",
			o.clusterProcs, o.router, o.clusterFaults)
	}
	srv.start(o.workers)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	if o.pprofAddr != "" {
		pln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof %s: %w", o.pprofAddr, err)
		}
		// Closing the listener ends Serve; a profile in flight is cut off
		// with the process, which is what an operator stopping it expects.
		defer pln.Close()
		go func() { _ = http.Serve(pln, pprofHandler()) }()
		log.Printf("pprof listening on %s", pln.Addr())
	}
	log.Printf("paradigmd listening on %s (%d workers, queue %d, %d jobs recovered)",
		ln.Addr(), o.workers, srv.queueCap, srv.backlog.Load())

	if o.smoke {
		machInfo := fmt.Sprintf("paradigmd_machine_info{name=%q,kind=%q} 1", mach.Name(), mach.Kind())
		if err := smokeCycle(ln.Addr().String(), machInfo); err != nil {
			return fmt.Errorf("smoke: %w", err)
		}
		srv.drain()
		shutdownHTTP(hs)
		<-serveErr
		fmt.Println("smoke ok: submitted, completed, fetched schedule and metrics, drained")
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("received %v: draining", s)
		srv.drain()
		shutdownHTTP(hs)
		<-serveErr
		log.Printf("drained %d jobs, exiting", srv.completed())
		return nil
	case err := <-serveErr:
		return err
	}
}

// machineBackend resolves -machine. The two classic profiles take the
// training-sets backend of a calibration on their 64-processor profile;
// any other builtin name or spec file resolves to the analytical one.
func machineBackend(name string) (paradigm.MachineBackend, error) {
	var profile func(int) paradigm.Machine
	switch name {
	case "cm5":
		profile = paradigm.NewCM5
	case "paragon":
		profile = paradigm.NewParagon
	default:
		return paradigm.ResolveMachine(name)
	}
	cal, err := paradigm.Calibrate(profile(64))
	if err != nil {
		return nil, err
	}
	return paradigm.NewTrainedMachine(cal), nil
}

// pprofHandler serves the net/http/pprof endpoints from a mux of its
// own, so importing the package never puts them on the job API.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func shutdownHTTP(hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
}

// specKey canonicalizes everything that determines the job's result,
// excluding the tenant: two jobs with equal spec keys produce
// byte-identical digests (the pipeline is deterministic).
func specKey(sub jobstore.Submit) string {
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d", sub.Program, sub.Size, sub.Procs, sub.Recover, sub.Retries, sub.FaultSeed)
}

// jobView is the status representation returned by the API.
type jobView struct {
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

// healthView is the /healthz body.
type healthView struct {
	State            string `json:"state"` // ok | degraded | draining
	QueueDepth       int    `json:"queue_depth"`
	QueueCap         int    `json:"queue_cap"`
	JournalLag       int    `json:"journal_lag"`
	Breaker          string `json:"breaker"`
	RecoveredPending int    `json:"recovered_pending"`
}

type job struct {
	jobView
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
	name     string
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

// serverConfig bundles the server's construction knobs.
type serverConfig struct {
	ckptDir   string
	queueCap  int
	shards    int // journal shards (0: 4)
	budget    time.Duration
	walRetain string
	retries   int
	policy    admission.Config
	cluster   clusterConfig // cluster mode (procs 0: off)
}

type server struct {
	mach       paradigm.MachineBackend
	ckptDir    string
	walRetain  string
	retries    int
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
	policy   admission.Config
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
	queueCap int
	draining atomic.Bool
	wg       sync.WaitGroup
	done     atomic.Uint64
	// backlog counts boot-recovered jobs not yet terminal.
	backlog atomic.Int64
}

func newServer(mach paradigm.MachineBackend, cfg serverConfig) (*server, error) {
	reg := paradigm.NewMetrics()
	// An info-style gauge surfaces the resolved machine on /metrics.
	reg.Gauge(fmt.Sprintf("paradigmd_machine_info{name=%q,kind=%q}", mach.Name(), mach.Kind())).Set(1)
	if err := cfg.policy.Validate(); err != nil {
		return nil, err
	}
	queuePol, err := admission.ParsePolicy(cfg.policy.QueuePolicy)
	if err != nil {
		return nil, err
	}
	if cfg.shards <= 0 {
		cfg.shards = 4
	}
	s := &server{
		mach:      mach,
		ckptDir:   cfg.ckptDir,
		walRetain: cfg.walRetain,
		retries:   cfg.retries,
		budgets: paradigm.StageBudgets{
			Calibrate: cfg.budget, Allocate: cfg.budget, Schedule: cfg.budget, Codegen: cfg.budget, Execute: cfg.budget,
		},
		breaker: paradigm.NewBreaker(paradigm.BreakerOptions{}),
		reg:     reg,
		policy:  cfg.policy,
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
	if cfg.cluster.enabled() {
		pool, err := newClusterPool(cfg.cluster, reg)
		if err != nil {
			return nil, err
		}
		s.pool = pool
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
	queueCap := cfg.queueCap
	if cfg.ckptDir != "" {
		journal, states, err := jobstore.OpenSharded(cfg.ckptDir, cfg.shards, s.obs)
		if err != nil {
			return nil, err
		}
		s.journal = journal
		pending = s.reloadJournal(states)
		if len(pending) > queueCap {
			// The recovered backlog must be admissible regardless of the
			// configured bound; new submits still shed at the larger cap.
			queueCap = len(pending)
		}
	}
	s.queue = admission.NewQueue(queuePol, queueCap)
	s.queueCap = queueCap
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

// queueItem wraps a job for the admission queue with its class priority
// and predicted Φ (SJF ordering).
func (s *server) queueItem(j *job) admission.Item {
	return admission.Item{Payload: j, Priority: s.tenantFor(j.Tenant).priority, Phi: s.predictPhi(j.sub)}
}

// tenantFor lazily materializes a tenant's admission state from the
// policy. Callers may hold s.mu; tenantFor takes no locks itself beyond
// the map (which s.mu guards) — boot and submit both reach it with the
// lock held or single-threaded.
func (s *server) tenantFor(name string) *tenantState {
	if name == "" {
		name = defaultTenant
	}
	if ts, ok := s.tenants[name]; ok {
		return ts
	}
	contract := s.policy.TenantContract(name)
	ts := &tenantState{
		name:     name,
		class:    contract.Class,
		priority: s.policy.PriorityOf(contract),
		bucket:   admission.NewBucket(contract.Rate, contract.Burst, nil),
	}
	s.tenants[name] = ts
	return ts
}

// predictPhi estimates a job's Φ for SJF ordering: the last solved Φ of
// the identical spec when known, else a work-scaling proxy (n³ flops
// spread over p processors; Strassen's seven-multiply recursion is
// cheaper than the classic eight).
func (s *server) predictPhi(sub jobstore.Submit) float64 {
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
func (s *server) reloadJournal(states []jobstore.JobState) []*job {
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
	return &job{sub: sub, jobView: jobView{
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

func (s *server) start(workers int) {
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// drain stops admission, lets the workers finish every accepted job,
// and returns when the queue is empty. The draining flag flips under
// the submit lock, so a racing submit either sees it (503) or has
// already pushed — Close only refuses later pushes and releases the
// workers once the backlog drains — and the post-wait sweep runs
// anything the exiting workers left behind, so an accepted job is
// never silently dropped.
func (s *server) drain() {
	s.mu.Lock()
	first := s.draining.CompareAndSwap(false, true)
	s.mu.Unlock()
	if first {
		s.queue.Close()
	}
	s.wg.Wait()
	for {
		it, ok := s.queue.TryPop()
		if !ok {
			return
		}
		s.runJob(it.Payload.(*job))
	}
}

func (s *server) completed() uint64 { return s.done.Load() }

func (s *server) worker() {
	defer s.wg.Done()
	for {
		it, ok := s.queue.Pop()
		if !ok {
			// Closed and drained.
			return
		}
		s.runJob(it.Payload.(*job))
	}
}

// journalState appends one status transition to the job journal. At
// runtime an append failure degrades durability but must not fail a job
// whose result is already correct: it is logged and counted instead.
func (s *server) journalState(st jobstore.State) {
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
func (s *server) updateLag() {
	if s.journal != nil {
		s.reg.Gauge("paradigmd_journal_lag").Set(float64(s.journal.Lag()))
	}
}

// gcWAL applies the retention policy to a terminal job's WAL: completed
// jobs' WALs are deleted once the completion is journaled (fixing the
// unbounded per-job WAL leak), failed jobs' WALs are kept for
// postmortem under the default policy.
func (s *server) gcWAL(id string, success bool) {
	if s.ckptDir == "" || s.walRetain == retainAll || (!success && s.walRetain != retainNone) {
		return
	}
	path := filepath.Join(s.ckptDir, "job-"+id+".wal")
	if err := os.Remove(path); err == nil {
		s.reg.Counter("paradigmd_wal_gc_total").Inc()
	} else if !os.IsNotExist(err) {
		log.Printf("wal-gc %s: %v", path, err)
	}
}

// inflightKey scopes coalescing: only same-tenant, identical-spec
// submits may share a solve, so one tenant's result is never handed to
// another tenant's job.
func inflightKey(sub jobstore.Submit) string {
	return sub.Tenant + "|" + specKey(sub)
}

func (s *server) runJob(j *job) {
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
	var st jobstore.State
	if err != nil {
		j.Status = jobstore.StatusFailed
		j.Error = err.Error()
		st = jobstore.State{ID: j.ID, Status: jobstore.StatusFailed, Error: j.Error}
		s.reg.Counter("paradigmd_jobs_failed_total").Inc()
	} else {
		j.Status = jobstore.StatusDone
		// After a recovery the schedule indexes the residual program's
		// graph, not the submitted one: keep the program it describes.
		j.sched, j.p = run.res.Sched, run.res.Program
		j.Phi, j.Actual = run.res.Alloc.Phi, run.res.Actual
		j.Digest = digest
		st = jobstore.State{ID: j.ID, Status: jobstore.StatusDone, Phi: j.Phi, Actual: j.Actual, Digest: j.Digest}
		s.reg.Counter("paradigmd_jobs_completed_total").Inc()
		// Remember the solved Φ for SJF ordering of future submits.
		s.phiBySpec[specKey(j.sub)] = j.Phi
	}
	// Resolve the coalesced followers under the same lock that set the
	// leader terminal: each acknowledged follower receives the leader's
	// outcome, and the in-flight slot closes so later identical submits
	// start a fresh solve.
	followers := j.followers
	j.followers = nil
	key := inflightKey(j.sub)
	if s.inflight[key] == j {
		delete(s.inflight, key)
	}
	terminal := append([]*job{j}, followers...)
	states := []jobstore.State{st}
	for _, f := range followers {
		f.Status, f.Error = j.Status, j.Error
		f.Phi, f.Actual, f.Digest = j.Phi, j.Actual, j.Digest
		f.sched, f.p = j.sched, j.p
		fst := st
		fst.ID = f.ID
		states = append(states, fst)
		if err != nil {
			s.reg.Counter("paradigmd_jobs_failed_total").Inc()
		} else {
			s.reg.Counter("paradigmd_jobs_completed_total").Inc()
		}
	}
	for _, t := range terminal {
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
func (s *server) program(kind string, size int) (*paradigm.Program, error) {
	key := kind + "|" + strconv.Itoa(size)
	if p, ok := s.programs.Get(key); ok {
		return p, nil
	}
	var (
		p   *paradigm.Program
		err error
	)
	switch kind {
	case "cmm":
		p, err = paradigm.ComplexMatMul(size, s.mach)
	case "strassen":
		p, err = paradigm.Strassen(size, s.mach)
	default:
		err = fmt.Errorf("unknown program %q (want cmm or strassen)", kind)
	}
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
// request) and runs on exactly the processors granted.
func (s *server) execute(sub jobstore.Submit) (run jobRun, err error) {
	p, err := s.program(sub.Program, sub.Size)
	if err != nil {
		return run, err
	}
	procs, faultLocal := sub.Procs, -1
	if s.pool != nil {
		g, err := s.pool.acquire(cluster.Spec{ID: sub.ID, Procs: sub.Procs})
		if err != nil {
			return run, err
		}
		procs, faultLocal = len(g.procs), g.faultLocal
		run.granted, run.degraded = procs, g.degraded
		start := time.Now()
		defer func() { s.pool.release(g, time.Since(start).Seconds()) }()
	}
	// Per-job retry budget: the request field overrides the server
	// default, capped so a hostile submit cannot park a worker.
	attempts := s.retries
	if sub.Retries > 0 {
		attempts = sub.Retries
	}
	attempts = min(attempts, maxRetryBudget)
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
	if s.ckptDir != "" {
		cp, err := paradigm.OpenDeferredCheckpoint(filepath.Join(s.ckptDir, "job-"+sub.ID+".wal"))
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
func (s *server) faultPlan(sub jobstore.Submit, p *paradigm.Program, procs, faultLocal int) (*paradigm.FaultPlan, error) {
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

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.renderTenantMetrics()
		io.WriteString(w, s.reg.Snapshot().Text())
	})
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleHealthz reports ok, degraded, or draining: degraded while the
// shared breaker is not closed (the solver is being shed to the
// heuristic) or while boot-recovered jobs are still replaying.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	breakerState, _ := s.breaker.Stats()
	backlog := int(s.backlog.Load())
	state, code := "ok", http.StatusOK
	switch {
	case s.draining.Load():
		state, code = "draining", http.StatusServiceUnavailable
	case breakerState != "closed" || backlog > 0:
		state = "degraded"
	}
	lag := 0
	if s.journal != nil {
		lag = s.journal.Lag()
	}
	writeJSON(w, code, healthView{
		State: state, QueueDepth: s.queue.Len(), QueueCap: s.queueCap,
		JournalLag: lag, Breaker: breakerState, RecoveredPending: backlog,
	})
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.submit(w, r)
	case http.MethodGet:
		// An X-Tenant header scopes the listing to one tenant's jobs.
		scope := r.Header.Get("X-Tenant")
		s.mu.Lock()
		views := make([]jobView, 0, len(s.order))
		for _, id := range s.order {
			if v := s.jobs[id].jobView; scope == "" || v.Tenant == scope {
				views = append(views, v)
			}
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, views)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.reg.Counter("paradigmd_jobs_rejected_total").Inc()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// MaxBytesReader turns an oversized body into a typed error (and a
	// clear 413) instead of a truncated payload's JSON decode error.
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	var sub jobstore.Submit
	if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.reg.Counter("paradigmd_jobs_rejected_total").Inc()
			http.Error(w, fmt.Sprintf("request body exceeds the %d-byte submit limit", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := jobstore.ValidateSubmit(sub); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if sub.Size > maxSize || sub.Procs > maxProcs {
		http.Error(w, fmt.Sprintf("size must be at most %d and procs at most %d, got size=%d procs=%d",
			maxSize, maxProcs, sub.Size, sub.Procs), http.StatusBadRequest)
		return
	}
	if sub.Tenant == "" {
		sub.Tenant = defaultTenant
	}
	s.mu.Lock()
	// Re-check under the lock: drain() flips the flag while holding it,
	// so a submit past this point is pushed before the queue closes —
	// the drain/submit race cannot drop an accepted job.
	if s.draining.Load() {
		s.mu.Unlock()
		s.reg.Counter("paradigmd_jobs_rejected_total").Inc()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// Tiered admission: the tenant's token bucket sheds its own
	// over-rate traffic with 429 before the job consumes queue space —
	// other tenants' admission is unaffected.
	ts := s.tenantFor(sub.Tenant)
	if !ts.bucket.Allow() {
		ts.rejected++
		s.mu.Unlock()
		s.reg.Counter("paradigmd_jobs_rejected_total").Inc()
		http.Error(w, fmt.Sprintf("tenant %q over admission rate", sub.Tenant), http.StatusTooManyRequests)
		return
	}
	// Submit coalescing: an identical same-tenant spec already queued or
	// running gets its own acknowledged-and-journaled job that joins the
	// in-flight solve instead of consuming a queue slot and a worker.
	// Cluster mode disables coalescing: a job's outcome there depends on
	// the pool's state at placement time (granted partition size, fault
	// injection), so identical specs are no longer interchangeable.
	key := inflightKey(sub)
	var leader *job
	if s.pool == nil {
		leader = s.inflight[key]
	}
	// Only submits (under this lock) and boot recovery (before serving)
	// push on the queue, so the capacity check makes the push below
	// infallible: a job is registered iff it was admitted.
	if leader == nil && s.queue.Len() >= s.queueCap {
		ts.rejected++
		s.mu.Unlock()
		s.reg.Counter("paradigmd_jobs_rejected_total").Inc()
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return
	}
	// The server names the job and its class, whatever the body said.
	sub.ID, sub.Class = strconv.Itoa(s.next+1), ts.class
	// Durability before acknowledgement: the accepted submit is
	// committed to the journal before the job exists anywhere else.
	// Followers are journaled like any job — after a restart they replay
	// independently and re-derive the identical digest.
	if s.journal != nil {
		if err := s.journal.AppendSubmit(sub); err != nil {
			s.mu.Unlock()
			s.reg.Counter("paradigmd_journal_errors_total").Inc()
			http.Error(w, "journal append failed: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	s.next++
	j := newJob(sub)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	ts.queued++
	if leader != nil {
		j.Coalesced = true
		leader.followers = append(leader.followers, j)
		s.reg.Counter("paradigmd_jobs_coalesced_total").Inc()
	} else {
		if !s.queue.Push(s.queueItem(j)) {
			// Unreachable by construction (capacity checked above, close
			// implies draining): surface loudly rather than lose the job.
			panic("paradigmd: admitted job refused by queue")
		}
		if s.pool == nil {
			s.inflight[key] = j
		}
	}
	s.mu.Unlock()
	s.updateLag()
	s.reg.Counter("paradigmd_jobs_submitted_total").Inc()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID})
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	// One critical section per request: everything a response needs is
	// copied out under a single hold of the lock workers finish jobs under.
	var (
		view  jobView
		sched *paradigm.Schedule
		p     *paradigm.Program
	)
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok {
		view, sched, p = j.jobView, j.sched, j.p
	}
	s.mu.Unlock()
	// An X-Tenant header scopes the lookup: another tenant's job id is
	// indistinguishable from a nonexistent one.
	if !ok || (r.Header.Get("X-Tenant") != "" && view.Tenant != r.Header.Get("X-Tenant")) {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	switch sub {
	case "":
		writeJSON(w, http.StatusOK, view)
	case "schedule":
		if sched == nil {
			if view.Status == jobstore.StatusDone {
				// Reloaded from the journal: the digest survived the
				// restart, the rendered schedule did not.
				http.Error(w, "schedule not retained across restart; resubmit the job to regenerate it",
					http.StatusGone)
				return
			}
			http.Error(w, "job not finished: "+view.Status, http.StatusConflict)
			return
		}
		io.WriteString(w, sched.Table(p.G))
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// renderTenantMetrics publishes the per-tenant admission series and the
// Jain fairness index J = (Σx)² / (n·Σx²) over per-tenant completed-job
// counts (1 when every tenant completed equally, →1/n under monopoly,
// 1 when there is nothing to be unfair about yet). Gauges are set at
// scrape time from the authoritative counters under s.mu.
func (s *server) renderTenantMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum, sumSq float64
	n := 0
	for _, ts := range s.tenants {
		label := fmt.Sprintf("{tenant=%q}", ts.name)
		s.reg.Gauge("paradigmd_tenant_queue_depth" + label).Set(float64(ts.queued))
		s.reg.Gauge("paradigmd_tenant_completed_total" + label).Set(float64(ts.completed))
		s.reg.Gauge("paradigmd_tenant_rejected_total" + label).Set(float64(ts.rejected))
		x := float64(ts.completed)
		sum += x
		sumSq += x * x
		n++
	}
	jain := 1.0
	if sumSq > 0 {
		jain = sum * sum / (float64(n) * sumSq)
	}
	s.reg.Gauge("paradigmd_tenant_fairness_jain").Set(jain)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// smokeCycle drives two identical jobs through a live server over real
// HTTP: the self-contained CI gate that the service starts, schedules,
// answers, memoizes the repeated plan in the schedule cache, and drains.
func smokeCycle(addr, machInfo string) error {
	base := "http://" + addr
	id1, err := smokeSubmitAndWait(base)
	if err != nil {
		return err
	}
	// The identical resubmission must replay the whole allocate→schedule
	// plan from the pipeline-level schedule cache without re-solving.
	if _, err := smokeSubmitAndWait(base); err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	var health healthView
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if health.State != "ok" || health.Breaker != "closed" {
		return fmt.Errorf("healthz = %+v, want ok/closed", health)
	}

	resp, err = http.Get(base + "/jobs/" + id1 + "/schedule")
	if err != nil {
		return err
	}
	sched, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(sched) == 0 {
		return fmt.Errorf("schedule fetch: %s", resp.Status)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"paradigmd_jobs_completed_total 2",
		"alloc_cache_miss_total 1",
		"sched_cache_miss_total 1",
		"sched_cache_hit_total 1",
		// Hot traffic takes the cheap path: the two jobs share one built
		// program. (The smoke server has no checkpoint directory, hence
		// no WAL counters to assert on.)
		"paradigmd_programs_built_total 1",
		"paradigmd_alloc_seconds_sched_cache",
		"paradigmd_tenant_fairness_jain 1",
		machInfo,
	} {
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	return nil
}

func smokeSubmitAndWait(base string) (string, error) {
	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"program":"cmm","size":16,"procs":4}`))
	if err != nil {
		return "", err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		return "", err
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			return "", errors.New("job did not finish within 60s")
		}
		resp, err := http.Get(base + "/jobs/" + accepted.ID)
		if err != nil {
			return "", err
		}
		var view jobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if view.Status == jobstore.StatusFailed {
			return "", fmt.Errorf("job failed: %s", view.Error)
		}
		if view.Status == jobstore.StatusDone {
			if view.Actual <= 0 {
				return "", fmt.Errorf("done job reports non-positive makespan %v", view.Actual)
			}
			if view.Digest == "" {
				return "", errors.New("done job reports no result digest")
			}
			return accepted.ID, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
}
