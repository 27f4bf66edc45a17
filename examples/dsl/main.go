// DSL: compile a matrix program written in the front-end language, run
// the full pipeline, verify numerically, and export a Chrome trace with
// the predicted and actual executions side by side.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"paradigm"
	"paradigm/internal/trace"
)

const source = `
# A small image-processing-style pipeline: one input operator applied
# along two independent filter paths, then combined.
param n = 48

matrix input  = init(n, n, wave)
matrix kernelA = init(n, n, ramp)
matrix kernelB = init(n, n, ramp)   @ col

matrix pathA = input * kernelA * kernelA
matrix pathB = (input * kernelB) * kernelB   @ col

matrix residual = pathA + pathB - input
`

func main() {
	ctx := context.Background()
	cal, err := paradigm.Calibrate(paradigm.NewCM5(16))
	if err != nil {
		log.Fatal(err)
	}
	p, err := paradigm.CompileSource("filter-pipeline", source, cal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s: %d MDG nodes, %d edges\n\n", p.Name, p.G.NumNodes(), len(p.G.Edges))

	m := paradigm.NewCM5(16)
	res, err := paradigm.RunContext(ctx, p, m, cal, 16)
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

	f, err := os.Create("filter-pipeline.trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteUnified(f, p.G, res.Sched, res.Sim, nil, trace.Meta{}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote filter-pipeline.trace.json (open in chrome://tracing)")
}
