package paradigm_test

import (
	"context"
	"fmt"
	"log"

	"paradigm"
)

// The workload class the paper's introduction motivates: a
// signal-processing-style pipeline whose branches expose functional
// parallelism that pure data parallelism cannot use. The MPMD advantage
// grows with the branch width.
func ExampleSyntheticPipeline() {
	ctx := context.Background()
	cal, err := paradigm.CalibrateContext(ctx, paradigm.NewCM5(64))
	if err != nil {
		log.Fatal(err)
	}
	m := paradigm.NewCM5(32)
	const procs = 32

	fmt.Printf("synthetic pipeline on %d processors (64x64 stages, depth 3)\n\n", procs)
	fmt.Printf("%8s  %12s  %12s  %12s\n", "branches", "SPMD (s)", "MPMD (s)", "MPMD gain")
	for _, width := range []int{1, 2, 4, 8} {
		p, err := paradigm.SyntheticPipeline(64, width, 3, cal)
		if err != nil {
			log.Fatal(err)
		}
		spmd, err := paradigm.RunSPMDContext(ctx, p, m, cal.Model(), procs)
		if err != nil {
			log.Fatal(err)
		}
		mpmd, err := paradigm.RunContext(ctx, p, m, cal, procs)
		if err != nil {
			log.Fatal(err)
		}
		if worst, err := paradigm.Verify(p, mpmd.Sim); err != nil || worst > 1e-9 {
			log.Fatalf("verification failed at width=%d: %v %v", width, worst, err)
		}
		fmt.Printf("%8d  %12.4f  %12.4f  %11.2fx\n",
			width, spmd.Actual, mpmd.Actual, spmd.Actual/mpmd.Actual)
	}

	// Output:
	// synthetic pipeline on 32 processors (64x64 stages, depth 3)
	//
	// branches      SPMD (s)      MPMD (s)     MPMD gain
	//        1        0.1125        0.1235         0.91x
	//        2        0.2252        0.1316         1.71x
	//        4        0.4505        0.1963         2.30x
	//        8        0.9012        0.3304         2.73x
}
