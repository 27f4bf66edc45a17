// Pipeline: the workload class the paper's introduction motivates — a
// wide signal-processing-style pipeline whose branches expose functional
// parallelism that pure data parallelism cannot use. Sweeps the branch
// width and shows the MPMD advantage growing with the available
// functional parallelism.
package main

import (
	"context"
	"fmt"
	"log"

	"paradigm"
)

func main() {
	ctx := context.Background()
	cal, err := paradigm.Calibrate(paradigm.NewCM5(64))
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
	fmt.Println("\nwider pipelines -> more functional parallelism -> larger MPMD advantage")
}
