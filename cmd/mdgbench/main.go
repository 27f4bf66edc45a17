// Command mdgbench studies how the allocation-and-scheduling machinery
// scales with MDG size: it generates layered synthetic MDGs, runs the
// convex allocator, the greedy heuristic and the PSA on each, and prints
// wall times and solution quality (experiment E13, parameterizable).
//
// Usage:
//
//	mdgbench -procs 32 -layers 8 -width 13 -seed 2026
//	mdgbench -sweep   # the standard E13 sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"paradigm/internal/alloc"
	"paradigm/internal/experiments"
	"paradigm/internal/mdg"
	"paradigm/internal/sched"
)

func main() {
	var (
		procs  = flag.Int("procs", 32, "system size p")
		layers = flag.Int("layers", 6, "layer count of the synthetic MDG")
		width  = flag.Int("width", 7, "nodes per layer")
		fanIn  = flag.Int("fanin", 3, "max fan-in per node")
		bytes  = flag.Int("bytes", 32768, "transfer size per edge")
		seed   = flag.Int64("seed", 2026, "generator seed")
		sweep  = flag.Bool("sweep", false, "run the standard E13 size sweep instead")
	)
	flag.Parse()
	if err := run(*procs, *layers, *width, *fanIn, *bytes, *seed, *sweep); err != nil {
		fmt.Fprintln(os.Stderr, "mdgbench:", err)
		os.Exit(1)
	}
}

func run(procs, layers, width, fanIn, bytes int, seed int64, sweep bool) error {
	env, err := experiments.NewEnv()
	if err != nil {
		return err
	}
	if sweep {
		r, err := experiments.Scalability(env)
		if err != nil {
			return err
		}
		fmt.Print(r)
		return nil
	}

	g, err := mdg.RandomLayered(seed, layers, width, fanIn, bytes)
	if err != nil {
		return err
	}
	metrics, err := g.ComputeMetrics()
	if err != nil {
		return err
	}
	fmt.Printf("MDG: %s\n\n", metrics)
	model := env.Cal.Model()

	t0 := time.Now()
	conv, err := alloc.Solve(g, model, procs, alloc.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("convex allocation : Phi = %.6f s in %v (%d interior-point iterations, duality gap %.1e)\n",
		conv.Phi, time.Since(t0).Round(time.Millisecond), conv.Solver.Iters, conv.Solver.Gap)

	t0 = time.Now()
	heur, err := alloc.SolveHeuristic(g, model, procs)
	if err != nil {
		return err
	}
	fmt.Printf("greedy heuristic  : Phi = %.6f s in %v (+%.1f%% vs convex)\n",
		heur.Phi, time.Since(t0).Round(time.Millisecond), 100*(heur.Phi-conv.Phi)/conv.Phi)

	t0 = time.Now()
	s, err := sched.Run(g, model, conv.P, procs, sched.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("PSA schedule      : T_psa = %.6f s in %v (PB = %d, deviation %+.1f%%)\n",
		s.Makespan, time.Since(t0).Round(time.Microsecond), s.PB,
		100*(s.Makespan-conv.Phi)/conv.Phi)
	fmt.Printf("utilization       : %.1f%%\n", 100*s.Utilization())
	return nil
}
