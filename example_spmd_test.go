package paradigm_test

import (
	"context"
	"fmt"
	"log"

	"paradigm"
)

// The paper's first test program (Figure 6 left) under both pipelines,
// across system sizes: the Figure 8 comparison of the pure data-parallel
// (SPMD) baseline against mixed task and data parallelism (MPMD). At
// small p the two are close; the MPMD advantage grows with the machine.
func ExampleRunSPMDContext() {
	ctx := context.Background()
	cal, err := paradigm.CalibrateContext(ctx, paradigm.NewCM5(64))
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

	mpmd, err := paradigm.RunContext(ctx, p, m, cal, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMPMD schedule at p = 16 (the four multiplies run concurrently):")
	fmt.Print(mpmd.Sched.Gantt(p.G, 72))

	// Output:
	// complex-matmul-64x64 — serial time 1.2018 s
	//
	//  procs      SPMD (s)      MPMD (s)    SPMD speedup    MPMD speedup
	//      4        0.3469        0.3898            3.46            3.08
	//     16        0.1668        0.1121            7.21           10.72
	//     32        0.1516        0.0696            7.93           17.27
	//     64        0.1553        0.0511            7.74           23.51
	//
	// MPMD schedule at p = 16 (the four multiplies run concurrently):
	// schedule: 16 processors, makespan 0.1187s, utilization 97.1% (PSA(lowest-EST))
	// P00 |Sn0===mu4==========================================================su8==|
	// P01 |Sn0===mu4==========================================================su8==|
	// P02 |Sn0===mu4==========================================================su8==|
	// P03 |Sn0===mu4==========================================================su8==|
	// P04 |in1===mu5==========================================================ad9==|
	// P05 |in1===mu5==========================================================ad9==|
	// P06 |in1===mu5==========================================================ad9==|
	// P07 |in1===mu5==========================================================ad9==|
	// P08 |in2===mu6==========================================================.....|
	// P09 |in2===mu6==========================================================.....|
	// P10 |in2===mu6==========================================================.....|
	// P11 |in2===mu6==========================================================.....|
	// P12 |in3===mu7==========================================================.....|
	// P13 |in3===mu7==========================================================.....|
	// P14 |in3===mu7==========================================================.....|
	// P15 |in3===mu7==========================================================.....|
	//      0                                                                  0.1187s
}
