package paradigm_test

import (
	"context"
	"fmt"
	"log"
	"math"

	"paradigm"
)

// The paper's second test program (Figure 6 right): Strassen's
// multiplication of 128×128 matrices as a 35-node MDG. The table is
// Table 3's Φ against T_psa. The product, assembled from the four
// simulated C quadrants, is then checked against the recursion's depth
// 0, one direct multiply of the same operands.
func ExampleStrassen() {
	ctx := context.Background()
	cal, err := paradigm.CalibrateContext(ctx, paradigm.NewCM5(64))
	if err != nil {
		log.Fatal(err)
	}
	const n = 128
	p, err := paradigm.Strassen(n, cal)
	if err != nil {
		log.Fatal(err)
	}
	m := paradigm.NewCM5(64)

	fmt.Printf("%s: %d MDG nodes\n\n", p.Name, p.G.NumNodes())
	fmt.Printf("%6s  %10s  %10s  %10s  %8s\n", "procs", "Phi (s)", "T_psa (s)", "actual (s)", "dev (%)")
	var last *paradigm.Result
	for _, procs := range []int{16, 32, 64} {
		res, err := paradigm.RunContext(ctx, p, m, cal, procs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d  %10.4f  %10.4f  %10.4f  %+8.1f\n",
			procs, res.Alloc.Phi, res.Predicted, res.Actual,
			100*(res.Predicted-res.Alloc.Phi)/res.Alloc.Phi)
		last = res
	}

	direct, err := paradigm.StrassenRecursive(n, 0, cal)
	if err != nil {
		log.Fatal(err)
	}
	dres, err := paradigm.RunContext(ctx, direct, m, cal, 64)
	if err != nil {
		log.Fatal(err)
	}
	want, err := dres.Sim.Gather("C")
	if err != nil {
		log.Fatal(err)
	}
	h := n / 2
	worst := 0.0
	for _, q := range []struct {
		name   string
		r0, c0 int
	}{{"C11", 0, 0}, {"C12", 0, h}, {"C21", h, 0}, {"C22", h, h}} {
		blk, err := last.Sim.Gather(q.name)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < h; i++ {
			for j := 0; j < h; j++ {
				worst = math.Max(worst, math.Abs(blk.At(i, j)-want.At(q.r0+i, q.c0+j)))
			}
		}
	}
	fmt.Printf("\nStrassen vs direct %dx%d multiply: max |deviation| = %.3g\n", n, n, worst)

	// Output:
	// strassen-128x128: 35 MDG nodes
	//
	//  procs     Phi (s)   T_psa (s)  actual (s)   dev (%)
	//     16      0.2357      0.2743      0.2622     +16.4
	//     32      0.1359      0.1654      0.1505     +21.7
	//     64      0.0860      0.1013      0.0915     +17.8
	//
	// Strassen vs direct 128x128 multiply: max |deviation| = 3.84e-13
}
