package paradigm_test

import (
	"context"
	"fmt"
	"log"

	"paradigm"
)

// filterPipeline is a program in the front-end language: one input
// operator applied along two independent filter paths, then combined.
// `@ col` picks a node's distribution axis (row by default).
const filterPipeline = `
param n = 48

matrix input  = init(n, n, wave)
matrix kernelA = init(n, n, ramp)
matrix kernelB = init(n, n, ramp)   @ col

matrix pathA = input * kernelA * kernelA
matrix pathB = (input * kernelB) * kernelB   @ col

matrix residual = pathA + pathB - input
`

// A matrix program compiled from source, run through the whole pipeline
// and checked against the sequential reference. `paradigm -src` runs a
// source file the same way, and its `-trace` flag writes the Perfetto
// trace of such a run.
func ExampleCompileSource() {
	ctx := context.Background()
	cal, err := paradigm.CalibrateContext(ctx, paradigm.NewCM5(16))
	if err != nil {
		log.Fatal(err)
	}
	p, err := paradigm.CompileSource("filter-pipeline", filterPipeline, cal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s: %d MDG nodes, %d edges\n\n", p.Name, p.G.NumNodes(), len(p.G.Edges))

	res, err := paradigm.RunContext(ctx, p, paradigm.NewCM5(16), cal, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Sched.Gantt(p.G, 72))
	fmt.Printf("\npredicted %.4fs, simulated %.4fs\n", res.Predicted, res.Actual)

	worst, err := paradigm.Verify(p, res.Sim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified against sequential reference (max deviation %g)\n", worst)

	// Output:
	// compiled filter-pipeline: 10 MDG nodes, 15 edges
	//
	// schedule: 16 processors, makespan 0.09998s, utilization 79.8% (PSA(lowest-EST))
	// P00 |Sn0=mu3==================mu4================================....ad7===su|
	// P01 |Sn0=mu3==================mu4================================....ad7===su|
	// P02 |Sn0=mu3==================mu4================================....ad7===su|
	// P03 |Sn0=mu3==================mu4================================....ad7===su|
	// P04 |in0=mu3==================.......................................ad7===su|
	// P05 |in0=mu3==================.......................................ad7===su|
	// P06 |in0=mu3==================.......................................ad7===su|
	// P07 |in0=mu3==================.......................................ad7===su|
	// P08 |inin2====mu5=========================mu6========================........|
	// P09 |inin2====mu5=========================mu6========================........|
	// P10 |inin2====mu5=========================mu6========================........|
	// P11 |inin2====mu5=========================mu6========================........|
	// P12 |inin2====mu5=========================mu6========================........|
	// P13 |inin2====mu5=========================mu6========================........|
	// P14 |inin2====mu5=========================mu6========================........|
	// P15 |inin2====mu5=========================mu6========================........|
	//      0                                                                  0.09998s
	//
	// predicted 0.1000s, simulated 0.0888s
	// verified against sequential reference (max deviation 0)
}
