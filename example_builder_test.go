package paradigm_test

import (
	"context"
	"fmt"
	"log"

	"paradigm"
)

// A program built node by node: Y = X + X over a generated 64×64
// matrix. The source is row-distributed and the add column-distributed,
// so the edge is a real ROW2COL (2D) redistribution. The run carries a
// metrics registry, and the simulated Y is checked element by element.
func ExampleNewProgramBuilder() {
	m := paradigm.NewCM5(8)
	cal, err := paradigm.CalibrateContext(context.Background(), m)
	if err != nil {
		log.Fatal(err)
	}

	initK := paradigm.Kernel{Op: paradigm.OpInit, M: 64, N: 64,
		Init: func(i, j0 int, row []float64) {
			for k := range row {
				row[k] = float64(i + j0 + k)
			}
		}}
	addK := paradigm.Kernel{Op: paradigm.OpAdd, M: 64, N: 64}
	lpInit, err := cal.Loop("init", initK)
	if err != nil {
		log.Fatal(err)
	}
	lpAdd, err := cal.Loop("add", addK)
	if err != nil {
		log.Fatal(err)
	}
	b := paradigm.NewProgramBuilder("quickstart")
	b.AddNode("source", paradigm.NodeSpec{Kernel: initK, Output: "X", Axis: paradigm.ByRow}, lpInit)
	b.AddNode("double", paradigm.NodeSpec{Kernel: addK, Inputs: []string{"X", "X"}, Output: "Y", Axis: paradigm.ByCol}, lpAdd)
	p, err := b.Finish()
	if err != nil {
		log.Fatal(err)
	}

	reg := paradigm.NewMetrics()
	res, err := paradigm.RunContext(context.Background(), p, m, cal, 8,
		paradigm.WithObserver(paradigm.NewMetricsObserver(reg)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Phi (convex optimum)  : %.6f s\n", res.Alloc.Phi)
	fmt.Printf("T_psa (schedule)      : %.6f s\n", res.Predicted)
	fmt.Printf("simulated actual time : %.6f s\n", res.Actual)
	fmt.Println()
	fmt.Print(res.Sched.Gantt(p.G, 64))
	fmt.Printf("\npipeline metrics:\n%s\n", reg.Snapshot().Text())

	worst, err := paradigm.Verify(p, res.Sim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max deviation from sequential reference: %g\n", worst)
	y, err := res.Sim.Gather("Y")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Y[10,20] = %.0f (want %d)\n", y.At(10, 20), 2*(10+20))

	// Output:
	// Phi (convex optimum)  : 0.012430 s
	// T_psa (schedule)      : 0.012626 s
	// simulated actual time : 0.010474 s
	//
	// schedule: 8 processors, makespan 0.01263s, utilization 71.6% (PSA(lowest-EST))
	// P00 |so0========================do1==================================|
	// P01 |so0========================do1==================================|
	// P02 |so0========================do1==================================|
	// P03 |so0========================do1==================================|
	// P04 |so0========================.....................................|
	// P05 |so0========================.....................................|
	// P06 |so0========================.....................................|
	// P07 |so0========================.....................................|
	//      0                                                          0.01263s
	//
	// pipeline metrics:
	// counter alloc_solve_anneal_total 1
	// counter alloc_solver_evals_total 11
	// counter alloc_solver_iters_total 9
	// counter alloc_solver_stages_total 9
	// counter alloc_solves_total 1
	// counter sched_picks_total 2
	// counter sched_round_nodes_total 2
	// counter sim_messages_total 28
	// counter sim_network_bytes_total 28672
	// counter sim_node_runs_total 2
	// hist alloc_solve_phi count=1 sum=0.012429767 1e-06:0 1e-05:0 0.0001:0 0.001:0 0.01:0 0.1:1 1:0 10:0 100:0 1000:0 10000:0 100000:0 1e+06:0 +Inf:0
	// hist alloc_solver_stage_gap count=9 sum=1.09352757 1e-06:3 1e-05:1 0.0001:0 0.001:1 0.01:1 0.1:1 1:2 10:0 100:0 1000:0 10000:0 100000:0 1e+06:0 +Inf:0
	// hist alloc_solver_stage_phi count=9 sum=0.119065284 1e-06:0 1e-05:0 0.0001:0 0.001:0 0.01:0 0.1:9 1:0 10:0 100:0 1000:0 10000:0 100000:0 1e+06:0 +Inf:0
	// hist sched_round_ratio count=2 sum=2.259334737 0.5:0 0.667:0 0.8:0 0.9:0 0.95:0 1:1 1.05:0 1.1:0 1.25:0 1.333:1 1.5:0 2:0 +Inf:0
	// hist sim_msg_bytes count=28 sum=28672 64:0 512:0 4096:28 32768:0 262144:0 2.097152e+06:0 1.6777216e+07:0 +Inf:0
	// hist sim_msg_latency_seconds count=28 sum=0.1227216 1e-06:0 1e-05:0 0.0001:0 0.001:0 0.01:28 0.1:0 1:0 10:0 100:0 +Inf:0
	// hist sim_node_span_seconds count=2 sum=0.00150448 1e-06:0 1e-05:0 0.0001:0 0.001:1 0.01:1 0.1:0 1:0 10:0 100:0 +Inf:0
	// hist sim_proc_busy_seconds count=8 sum=0.06334016 1e-06:0 1e-05:0 0.0001:0 0.001:0 0.01:4 0.1:4 1:0 10:0 100:0 +Inf:0
	// hist sim_proc_idle_seconds count=8 sum=0.02045312 1e-06:4 1e-05:0 0.0001:0 0.001:0 0.01:4 0.1:0 1:0 10:0 100:0 +Inf:0
	//
	// max deviation from sequential reference: 0
	// Y[10,20] = 60 (want 60)
}
