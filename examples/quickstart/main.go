// Quickstart: build a tiny two-node program with the public API, run the
// full convex-allocation + PSA + MPMD pipeline on a simulated 8-processor
// CM-5 with metrics attached, and verify the result numerically.
package main

import (
	"context"
	"fmt"
	"log"

	"paradigm"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
)

func main() {
	// 1. A machine and its training-sets calibration.
	m := paradigm.NewCM5(8)
	cal, err := paradigm.CalibrateContext(context.Background(), m)
	if err != nil {
		log.Fatal(err)
	}

	// 2. A program: Y = X + X over a generated 64x64 matrix. The source is
	// row-distributed and the add column-distributed, so the edge is a
	// real ROW2COL (2D) redistribution.
	b := paradigm.NewProgramBuilder("quickstart")
	initK := kernels.Kernel{Op: kernels.OpInit, M: 64, N: 64,
		Init: kernels.Elementwise(func(i, j int) float64 { return float64(i + j) })}
	addK := kernels.Kernel{Op: kernels.OpAdd, M: 64, N: 64}
	lpInit, err := cal.Loop("init", initK)
	if err != nil {
		log.Fatal(err)
	}
	lpAdd, err := cal.Loop("add", addK)
	if err != nil {
		log.Fatal(err)
	}
	b.AddNode("source", paradigm.NodeSpec{Kernel: initK, Output: "X", Axis: dist.ByRow}, lpInit)
	b.AddNode("double", paradigm.NodeSpec{Kernel: addK, Inputs: []string{"X", "X"}, Output: "Y", Axis: dist.ByCol}, lpAdd)
	p, err := b.Finish()
	if err != nil {
		log.Fatal(err)
	}

	// 3. Allocate, schedule, generate MPMD code, simulate, with a
	// metrics registry observing the run.
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

	// 4. Verify against the sequential reference.
	worst, err := paradigm.Verify(p, res.Sim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmax deviation from sequential reference: %g\n", worst)
	y, err := res.Sim.Gather("Y")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Y[10,20] = %.0f (want %d)\n", y.At(10, 20), 2*(10+20))
}
