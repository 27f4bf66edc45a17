// The canonical event→metrics fold: an Observer that aggregates pipeline
// events into a Registry. Every fold operation is commutative (counter
// adds, histogram observations), so the resulting snapshot is
// deterministic no matter how the worker pool interleaved the emitters.

package obs

// Ratio buckets for rounding deltas (rounded/continuous ∈ [2/3, 4/3] by
// Theorem 2) and R² values.
var ratioBuckets = []float64{0.5, 0.667, 0.8, 0.9, 0.95, 1, 1.05, 1.1, 1.25, 1.333, 1.5, 2}

// timeBuckets cover the simulated-seconds scale of the CM-5 runs.
var timeBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100}

// byteBuckets cover message sizes.
var byteBuckets = []float64{64, 512, 4096, 32768, 262144, 2097152, 16777216}

// MetricsObserver returns an Observer folding events into r under the
// canonical metric names (see DESIGN.md §8 for the taxonomy).
func MetricsObserver(r *Registry) Observer {
	if r == nil {
		return nil
	}
	return &metricsObserver{r: r}
}

type metricsObserver struct{ r *Registry }

// Observe implements Observer.
func (m *metricsObserver) Observe(e Event) {
	r := m.r
	switch ev := e.(type) {
	case SolverStage:
		r.Counter("alloc_solver_stages_total").Inc()
		r.Counter("alloc_solver_iters_total").Add(ev.Iters)
		r.Counter("alloc_solver_evals_total").Add(ev.Evals)
		r.Histogram("alloc_solver_stage_phi", nil).Observe(ev.Phi)
		r.Histogram("alloc_solver_stage_gap", nil).Observe(ev.Gap)
	case PSARound:
		r.Counter("sched_round_nodes_total").Inc()
		if ev.Clipped {
			r.Counter("sched_round_clipped_total").Inc()
		}
		if ev.Continuous > 0 {
			r.Histogram("sched_round_ratio", ratioBuckets).
				Observe(float64(ev.Final) / ev.Continuous)
		}
	case PSAPick:
		r.Counter("sched_picks_total").Inc()
		// Wait = Start - EST: how long the pick sat on processors
		// (PST > EST means the bound stretched the critical path).
		if w := ev.Start - ev.EST; w > 0 {
			r.Histogram("sched_pick_wait_seconds", timeBuckets).Observe(w)
		}
	case Comm:
		r.Counter("sim_messages_total").Inc()
		r.Counter("sim_network_bytes_total").Add(ev.Bytes)
		r.Histogram("sim_msg_bytes", byteBuckets).Observe(float64(ev.Bytes))
		if w := ev.RecvStart - ev.SendStart; w > 0 {
			r.Histogram("sim_msg_latency_seconds", timeBuckets).Observe(w)
		}
	case NodeRun:
		r.Counter("sim_node_runs_total").Inc()
		r.Histogram("sim_node_span_seconds", timeBuckets).Observe(ev.Finish - ev.Start)
	case ProcStat:
		r.Histogram("sim_proc_busy_seconds", timeBuckets).Observe(ev.Busy)
		r.Histogram("sim_proc_idle_seconds", timeBuckets).Observe(ev.Idle)
	case CalibFit:
		r.Counter("calib_fits_total").Inc()
		r.Histogram("calib_fit_r2", ratioBuckets).Observe(ev.R2)
		r.Histogram("calib_fit_residual_seconds", timeBuckets).Observe(ev.MaxAbsResidual)
		if ev.Warning {
			r.Counter("calib_fit_warnings_total").Inc()
		}
	case Fault:
		r.Counter("fault_injected_total").Inc()
		r.Counter("fault_injected_" + ev.FaultKind + "_total").Inc()
	case Recovery:
		r.Counter("recovery_attempts_total").Inc()
		r.Counter("recovery_failed_procs_total").Add(ev.Failed)
		r.Counter("recovery_restored_arrays_total").Add(ev.Restored)
		r.Counter("recovery_residual_nodes_total").Add(ev.Residual)
	case Replan:
		r.Counter("replan_total").Inc()
		r.Counter("replan_" + sanitizeMetricFragment(ev.Stage) + "_total").Inc()
		r.Histogram("replan_phi", nil).Observe(ev.Phi)
	case Checkpoint:
		r.Counter("ckpt_commits_total").Inc()
		r.Counter("ckpt_commit_bytes_total").Add(ev.Bytes)
		r.Histogram("ckpt_record_bytes", byteBuckets).Observe(float64(ev.Bytes))
	case Resume:
		r.Counter("ckpt_resume_total").Inc()
		r.Counter("ckpt_resume_" + sanitizeMetricFragment(ev.Stage) + "_total").Inc()
	case Retry:
		r.Counter("retry_total").Inc()
		r.Counter("retry_" + sanitizeMetricFragment(ev.Stage) + "_total").Inc()
		r.Histogram("retry_delay_seconds", timeBuckets).Observe(ev.DelaySeconds)
	case Breaker:
		r.Counter("breaker_decisions_total").Inc()
		r.Counter("breaker_" + sanitizeMetricFragment(ev.State) + "_total").Inc()
	case AllocCache:
		r.Counter("alloc_cache_requests_total").Inc()
		r.Counter("alloc_cache_" + sanitizeMetricFragment(ev.Outcome) + "_total").Inc()
	case SchedCache:
		r.Counter("sched_cache_requests_total").Inc()
		r.Counter("sched_cache_" + sanitizeMetricFragment(ev.Outcome) + "_total").Inc()
	case JournalAppend:
		r.Counter("job_journal_appends_total").Inc()
		r.Counter("job_journal_append_" + sanitizeMetricFragment(ev.Record) + "_total").Inc()
		r.Histogram("job_journal_record_bytes", byteBuckets).Observe(float64(ev.Bytes))
	case AllocDone:
		// Seconds is wall-clock and deliberately not folded: the registry
		// snapshot stays byte-identical across worker widths and machines.
		r.Counter("alloc_solves_total").Inc()
		r.Counter("alloc_solve_" + sanitizeMetricFragment(ev.Backend) + "_total").Inc()
		r.Histogram("alloc_solve_phi", nil).Observe(ev.Phi)
	}
}

// sanitizeMetricFragment maps an event label into a metric-name-safe
// fragment (the Stage strings use '-' separators).
func sanitizeMetricFragment(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c == '-' || c == ' ' {
			b[i] = '_'
		}
	}
	return string(b)
}
