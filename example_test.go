package paradigm_test

import (
	"context"
	"fmt"
	"log"

	"paradigm"
)

// The whole pipeline in a few lines: calibrate a simulated CM-5 by the
// training-sets method, build the paper's complex matrix multiply,
// allocate processors by the convex program, schedule with PSA, run the
// generated MPMD code on the simulator and check the product against the
// sequential reference.
func Example() {
	ctx := context.Background()
	m := paradigm.NewCM5(8)                       // simulated CM-5, 8 processors
	cal, err := paradigm.CalibrateContext(ctx, m) // training-sets calibration (Tables 1-2)
	if err != nil {
		log.Fatal(err)
	}
	p, err := paradigm.ComplexMatMul(64, cal) // a built-in test program
	if err != nil {
		log.Fatal(err)
	}
	res, err := paradigm.RunContext(ctx, p, m, cal, 8) // allocate, schedule, MPMD codegen, simulate
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Phi (convex optimum)  : %.6f s\n", res.Alloc.Phi)
	fmt.Printf("T_psa (schedule)      : %.6f s\n", res.Predicted)
	fmt.Printf("simulated actual time : %.6f s\n", res.Actual)
	worst, err := paradigm.Verify(p, res.Sim) // max deviation from the sequential reference
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("max deviation:", worst)

	// Output:
	// Phi (convex optimum)  : 0.199499 s
	// T_psa (schedule)      : 0.205154 s
	// simulated actual time : 0.202824 s
	// max deviation: 0
}
