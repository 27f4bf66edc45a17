// Complex matrix multiply (the paper's first test program, Figure 6
// left): run both the SPMD baseline and the MPMD pipeline across system
// sizes, reproduce the Figure 8 speedup comparison, and verify the
// complex product numerically.
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
	p, err := paradigm.ComplexMatMul(64, cal)
	if err != nil {
		log.Fatal(err)
	}
	m := paradigm.NewCM5(64)

	serial, err := paradigm.RunSPMDContext(ctx, p, m, cal.Model(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s — serial time %.4f s\n\n", p.Name, serial.Actual)
	fmt.Printf("%6s  %12s  %12s  %14s  %14s\n", "procs", "SPMD (s)", "MPMD (s)", "SPMD speedup", "MPMD speedup")
	for _, procs := range []int{4, 16, 32, 64} {
		spmd, err := paradigm.RunSPMDContext(ctx, p, m, cal.Model(), procs)
		if err != nil {
			log.Fatal(err)
		}
		mpmd, err := paradigm.RunContext(ctx, p, m, cal, procs)
		if err != nil {
			log.Fatal(err)
		}
		sS, _ := paradigm.Speedup(serial.Actual, spmd.Actual)
		sM, _ := paradigm.Speedup(serial.Actual, mpmd.Actual)
		fmt.Printf("%6d  %12.4f  %12.4f  %14.2f  %14.2f\n", procs, spmd.Actual, mpmd.Actual, sS, sM)

		if worst, err := paradigm.Verify(p, mpmd.Sim); err != nil || worst > 1e-9 {
			log.Fatalf("verification failed at p=%d: worst %v err %v", procs, worst, err)
		}
	}
	fmt.Println("\nall runs verified against the sequential reference")
	fmt.Println("note the crossover: at small p pure data parallelism is competitive;")
	fmt.Println("the mixed-parallelism advantage appears as the machine grows (the")
	fmt.Println("paper's Figure 8 point, 'especially for larger systems')")

	// Show the mixed-parallelism schedule at p=16.
	mpmd, err := paradigm.RunContext(ctx, p, m, cal, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMPMD schedule at p = 16 (the four multiplies run concurrently):")
	fmt.Print(mpmd.Sched.Gantt(p.G, 72))
}
