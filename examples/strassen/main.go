// Strassen's matrix multiplication (the paper's second test program,
// Figure 6 right): 33 computation nodes with rich functional parallelism.
// Runs the full pipeline at 128x128, prints the Table-3-style Phi vs
// T_psa deviation, and verifies the assembled product against a direct
// multiply of the conceptual operands.
package main

import (
	"context"
	"fmt"
	"log"

	"paradigm"
	"paradigm/internal/matrix"
	"paradigm/internal/programs"
)

func main() {
	ctx := context.Background()
	cal, err := paradigm.Calibrate(paradigm.NewCM5(64))
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

	// Assemble C from the simulated quadrants and verify against the
	// direct product of the conceptual operands.
	h := n / 2
	c := matrix.New(n, n)
	for _, q := range []struct {
		name   string
		r0, c0 int
	}{{"C11", 0, 0}, {"C12", 0, h}, {"C21", h, 0}, {"C22", h, h}} {
		blk, err := last.Sim.Gather(q.name)
		if err != nil {
			log.Fatal(err)
		}
		c.SetBlock(q.r0, q.c0, blk)
	}
	a := matrix.New(n, n)
	b := matrix.New(n, n)
	a.Fill(programs.AElem)
	b.Fill(programs.BElem)
	want := matrix.New(n, n)
	if err := matrix.Mul(want, a, b); err != nil {
		log.Fatal(err)
	}
	d, err := matrix.MaxAbsDiff(c, want)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nStrassen result vs direct %dx%d multiply: max |deviation| = %.3g\n", n, n, d)
	if d > 1e-9 {
		log.Fatal("verification FAILED")
	}
	fmt.Println("verification passed: 7 multiplies + 18 adds reproduce the direct product")
}
