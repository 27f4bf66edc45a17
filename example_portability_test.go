package paradigm_test

import (
	"context"
	"fmt"
	"log"

	"paradigm"
)

// The same program and pipeline on two machines. Only the fitted
// constants differ: the CM-5 has slow processors, expensive message
// startups and no network transit term; the Paragon-like profile is an
// order of magnitude faster, with a real wire delay the calibration must
// discover.
func ExampleNewParagon() {
	ctx := context.Background()
	for _, mk := range []struct {
		name    string
		profile func(int) paradigm.Machine
	}{
		{"Thinking Machines CM-5", paradigm.NewCM5},
		{"Intel Paragon (like)", paradigm.NewParagon},
	} {
		m := mk.profile(64)
		cal, err := paradigm.CalibrateContext(ctx, m)
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
			if worst, err := paradigm.Verify(p, res.Sim); err != nil || worst > 1e-9 {
				log.Fatalf("verification failed: %v %v", worst, err)
			}
			fmt.Printf("  Strassen 128x128, p=%2d: Phi=%.5fs  T_psa=%.5fs  actual=%.5fs\n",
				procs, res.Alloc.Phi, res.Predicted, res.Actual)
		}
	}

	// Output:
	// Thinking Machines CM-5
	//   fitted: t_ss=740.1us t_ps=480.1ns t_sr=442.1us t_pr=300.1ns t_n=0.00ns
	//   Strassen 128x128, p=16: Phi=0.23572s  T_psa=0.27430s  actual=0.26217s
	//   Strassen 128x128, p=64: Phi=0.08604s  T_psa=0.10134s  actual=0.09152s
	// Intel Paragon (like)
	//   fitted: t_ss=120.0us t_ps=25.0ns t_sr=95.0us t_pr=20.0ns t_n=6.00ns
	//   Strassen 128x128, p=16: Phi=0.01090s  T_psa=0.01302s  actual=0.01180s
	//   Strassen 128x128, p=64: Phi=0.00537s  T_psa=0.00847s  actual=0.00782s
}
