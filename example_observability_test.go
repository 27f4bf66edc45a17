package paradigm_test

import (
	"context"
	"fmt"
	"log"
	"sort"

	"paradigm"
)

// A Strassen run observed by an event recorder and a metrics registry at
// once. The recorder keeps every structured event each stage reported;
// the registry folds them into counters and histograms under the
// canonical metric names. `paradigm -trace` renders the same events as
// a Perfetto trace.
func ExampleMultiObserver() {
	const procs = 16
	ctx := context.Background()

	rec := paradigm.NewEventRecorder()
	reg := paradigm.NewMetrics()
	ob := paradigm.MultiObserver(rec, paradigm.NewMetricsObserver(reg))

	cal, err := paradigm.CalibrateContext(ctx, paradigm.NewCM5(64), paradigm.WithObserver(ob))
	if err != nil {
		log.Fatal(err)
	}
	p, err := paradigm.Strassen(128, cal)
	if err != nil {
		log.Fatal(err)
	}
	res, err := paradigm.RunContext(ctx, p, paradigm.NewCM5(procs), cal, procs, paradigm.WithObserver(ob))
	if err != nil {
		log.Fatal(err)
	}

	count := map[string]int{}
	for _, e := range rec.Events() {
		count[fmt.Sprintf("%T", e)]++
	}
	kinds := make([]string, 0, len(count))
	for k := range count {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("%d events:\n", rec.Len())
	for _, k := range kinds {
		fmt.Printf("  %-18s %4d\n", k, count[k])
	}
	fmt.Printf("makespan: predicted %.6f s, actual %.6f s\n\n", res.Predicted, res.Actual)
	fmt.Print(reg.Snapshot().Text())

	// Output:
	// 244 events:
	//   obs.AllocDone         1
	//   obs.CalibFit          5
	//   obs.Comm            103
	//   obs.NodeRun          33
	//   obs.PSAPick          35
	//   obs.PSARound         35
	//   obs.ProcStat         16
	//   obs.SolverStage      16
	// makespan: predicted 0.274297 s, actual 0.262165 s
	//
	// counter alloc_solve_anneal_total 1
	// counter alloc_solver_evals_total 18
	// counter alloc_solver_iters_total 16
	// counter alloc_solver_stages_total 16
	// counter alloc_solves_total 1
	// counter calib_fits_total 5
	// counter sched_picks_total 35
	// counter sched_round_nodes_total 35
	// counter sim_messages_total 103
	// counter sim_network_bytes_total 1384448
	// counter sim_node_runs_total 33
	// hist alloc_solve_phi count=1 sum=0.23572248 1e-06:0 1e-05:0 0.0001:0 0.001:0 0.01:0 0.1:0 1:1 10:0 100:0 1000:0 10000:0 100000:0 1e+06:0 +Inf:0
	// hist alloc_solver_stage_gap count=16 sum=10.087699858 1e-06:3 1e-05:0 0.0001:2 0.001:2 0.01:3 0.1:1 1:2 10:3 100:0 1000:0 10000:0 100000:0 1e+06:0 +Inf:0
	// hist alloc_solver_stage_phi count=16 sum=5.176819868 1e-06:0 1e-05:0 0.0001:0 0.001:0 0.01:0 0.1:0 1:15 10:1 100:0 1000:0 10000:0 100000:0 1e+06:0 +Inf:0
	// hist calib_fit_r2 count=5 sum=4.996164027 0.5:0 0.667:0 0.8:0 0.9:0 0.95:0 1:5 1.05:0 1.1:0 1.25:0 1.333:0 1.5:0 2:0 +Inf:0
	// hist calib_fit_residual_seconds count=5 sum=0.010710742 1e-06:2 1e-05:0 0.0001:0 0.001:1 0.01:2 0.1:0 1:0 10:0 100:0 +Inf:0
	// hist sched_pick_wait_seconds count=3 sum=0.041647418 1e-06:0 1e-05:0 0.0001:0 0.001:1 0.01:0 0.1:2 1:0 10:0 100:0 +Inf:0
	// hist sched_round_ratio count=35 sum=31.347920398 0.5:0 0.667:0 0.8:13 0.9:5 0.95:2 1:3 1.05:6 1.1:4 1.25:0 1.333:2 1.5:0 2:0 +Inf:0
	// hist sim_msg_bytes count=103 sum=1.384448e+06 64:0 512:0 4096:0 32768:103 262144:0 2.097152e+06:0 1.6777216e+07:0 +Inf:0
	// hist sim_msg_latency_seconds count=103 sum=2.15430224 1e-06:0 1e-05:0 0.0001:0 0.001:0 0.01:29 0.1:74 1:0 10:0 100:0 +Inf:0
	// hist sim_node_span_seconds count=33 sum=1.11272416 1e-06:0 1e-05:0 0.0001:0 0.001:0 0.01:26 0.1:0 1:7 10:0 100:0 +Inf:0
	// hist sim_proc_busy_seconds count=16 sum=3.43286744 1e-06:0 1e-05:0 0.0001:0 0.001:0 0.01:0 0.1:0 1:16 10:0 100:0 +Inf:0
	// hist sim_proc_idle_seconds count=16 sum=0.76177704 1e-06:0 1e-05:0 0.0001:0 0.001:0 0.01:3 0.1:11 1:2 10:0 100:0 +Inf:0
}
