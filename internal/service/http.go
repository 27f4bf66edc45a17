package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"paradigm/internal/jobstore"
)

// Handler is the job API. Each route names its method, so the mux
// answers any other method with 405.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.submit)
	mux.HandleFunc("GET /jobs", s.listJobs)
	mux.HandleFunc("GET /jobs/{id}", s.getJob)
	mux.HandleFunc("GET /jobs/{id}/schedule", s.getSchedule)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.renderTenantMetrics()
		io.WriteString(w, s.reg.Snapshot().Text())
	})
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz reports ok, degraded, or draining: degraded while the
// shared breaker is not closed (the solver is being shed to the
// heuristic) or while boot-recovered jobs are still replaying.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
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
	writeJSON(w, code, HealthView{
		State: state, QueueDepth: s.queue.Len(), QueueCap: s.cfg.QueueCap,
		JournalLag: lag, Breaker: breakerState, RecoveredPending: backlog,
	})
}

// listJobs lists job summaries in submission order; an X-Tenant header
// scopes the listing to one tenant's jobs.
func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	scope := r.Header.Get("X-Tenant")
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		if v := s.jobs[id].JobView; scope == "" || v.Tenant == scope {
			views = append(views, v)
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
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
	// A seeded plan with recovery kills one of the job's processors; on
	// one processor there is no survivor, so the job could only fail. A
	// cluster grant is never smaller than 2 for a request of 2 or more.
	if sub.Procs == 1 && sub.FaultSeed != 0 && sub.Recover > 0 {
		http.Error(w, "a fault_seed with recover > 0 kills a processor: procs must be at least 2", http.StatusBadRequest)
		return
	}
	if sub.Tenant == "" {
		sub.Tenant = defaultTenant
	}
	s.mu.Lock()
	// Re-check under the lock: Drain flips the flag while holding it,
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
	if leader == nil && s.queue.Len() >= s.cfg.QueueCap {
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

// lookup copies out the job a request names, under one hold of the lock
// workers finish jobs under. An X-Tenant header scopes the lookup:
// another tenant's job id is indistinguishable from a nonexistent one,
// and either is answered 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var snap job
	if ok {
		snap = *j
	}
	s.mu.Unlock()
	if tenant := r.Header.Get("X-Tenant"); !ok || (tenant != "" && snap.Tenant != tenant) {
		http.Error(w, "no such job", http.StatusNotFound)
		return snap, false
	}
	return snap, true
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.JobView)
	}
}

func (s *Server) getSchedule(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	switch {
	case !ok: // lookup answered 404
	case j.sched != nil:
		io.WriteString(w, j.sched.Table(j.p.G))
	case j.Status == jobstore.StatusDone:
		// Reloaded from the journal: the digest survived the restart, the
		// rendered schedule did not.
		http.Error(w, "schedule not retained across restart; resubmit the job to regenerate it",
			http.StatusGone)
	default:
		http.Error(w, "job not finished: "+j.Status, http.StatusConflict)
	}
}

// renderTenantMetrics publishes the per-tenant admission series and the
// Jain fairness index J = (Σx)² / (n·Σx²) over per-tenant completed-job
// counts (1 when every tenant completed equally, →1/n under monopoly,
// 1 when there is nothing to be unfair about yet). Gauges are set at
// scrape time from the authoritative counters under s.mu.
func (s *Server) renderTenantMetrics() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum, sumSq float64
	n := 0
	for name, ts := range s.tenants {
		label := fmt.Sprintf("{tenant=%q}", name)
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
