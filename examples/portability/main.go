// Portability: the same program, the same pipeline, two machines. The
// methodology — training-sets calibration, convex allocation, PSA — is
// machine-agnostic; only the fitted parameters change. The CM-5 has slow
// processors, expensive message startups and zero network transit (t_n
// folded into receives); the Paragon profile is an order of magnitude
// faster with a real wire delay that the calibration must discover.
package main

import (
	"context"
	"fmt"
	"log"

	"paradigm"
)

func main() {
	ctx := context.Background()
	for _, mk := range []struct {
		name    string
		profile func(int) paradigm.Machine
	}{
		{"Thinking Machines CM-5", paradigm.NewCM5},
		{"Intel Paragon (like)", paradigm.NewParagon},
	} {
		m := mk.profile(64)
		cal, err := paradigm.Calibrate(m)
		if err != nil {
			log.Fatal(err)
		}
		tp := cal.Transfer.Params
		fmt.Printf("%s\n", mk.name)
		fmt.Printf("  fitted: t_ss=%.1fus t_ps=%.1fns t_sr=%.1fus t_pr=%.1fns t_n=%.2fns\n",
			tp.Tss*1e6, tp.Tps*1e9, tp.Tsr*1e6, tp.Tpr*1e9, tp.Tn*1e9)

		p, err := paradigm.Strassen(128, cal)
		if err != nil {
			log.Fatal(err)
		}
		for _, procs := range []int{16, 64} {
			res, err := paradigm.RunContext(ctx, p, m, cal, procs)
			if err != nil {
				log.Fatal(err)
			}
			worst, err := paradigm.Verify(p, res.Sim)
			if err != nil || worst > 1e-9 {
				log.Fatalf("verification failed: %v %v", worst, err)
			}
			fmt.Printf("  Strassen 128x128, p=%2d: Phi=%.5fs  T_psa=%.5fs  actual=%.5fs (verified)\n",
				procs, res.Alloc.Phi, res.Predicted, res.Actual)
		}
		fmt.Println()
	}
	fmt.Println("same pipeline, both machines: only the calibrated constants differ")
}
