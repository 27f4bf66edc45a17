// Observability: run the Strassen pipeline with an event recorder and a
// metrics registry attached, print a digest of what each stage reported,
// and export the unified Chrome/Perfetto trace (predicted and actual
// node tracks, per-message comm flows, PSA decisions, and the solver's
// Φ and duality-gap counter track) to strassen_trace.json.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"paradigm"
	"paradigm/internal/obs"
	"paradigm/internal/trace"
)

func main() {
	const procs = 16
	m := paradigm.NewCM5(procs)
	ctx := context.Background()

	rec := paradigm.NewEventRecorder()
	reg := paradigm.NewMetrics()
	ob := paradigm.MultiObserver(rec, paradigm.NewMetricsObserver(reg))

	cal, err := paradigm.CalibrateContext(ctx, paradigm.NewCM5(64), paradigm.WithObserver(ob))
	if err != nil {
		log.Fatal(err)
	}
	p, err := paradigm.Strassen(128, cal)
	if err != nil {
		log.Fatal(err)
	}
	res, err := paradigm.RunContext(ctx, p, m, cal, procs, paradigm.WithObserver(ob))
	if err != nil {
		log.Fatal(err)
	}

	// A digest of the recorded event stream, stage by stage.
	var stages, rounds, picks, comms, nodes int
	var lastPhi, lastGap float64
	for _, e := range rec.Events() {
		switch ev := e.(type) {
		case obs.SolverStage:
			stages++
			lastPhi, lastGap = ev.Phi, ev.Gap
		case obs.PSARound:
			rounds++
		case obs.PSAPick:
			picks++
		case obs.Comm:
			comms++
		case obs.NodeRun:
			nodes++
		}
	}
	fmt.Printf("solver   : %d interior-point iterations, final Phi %.6f s, duality gap %.1e\n", stages, lastPhi, lastGap)
	fmt.Printf("PSA      : %d rounding decisions, %d placements\n", rounds, picks)
	fmt.Printf("simulator: %d node runs, %d messages\n", nodes, comms)
	fmt.Printf("makespan : predicted %.6f s, actual %.6f s\n\n", res.Predicted, res.Actual)
	fmt.Printf("metrics:\n%s\n", reg.Snapshot().Text())

	f, err := os.Create("strassen_trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteUnified(f, p.G, res.Sched, res.Sim, rec.Events(), trace.Meta{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unified trace written to strassen_trace.json (%d events recorded)\n", rec.Len())
}
