// Fault injection and failure-aware rescheduling: run the complex
// matrix multiply under a fault schedule that kills a processor
// mid-flight, let the pipeline salvage the completed arrays, replan on
// the survivors, and verify the recovered result against the sequential
// reference bit for bit.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"paradigm"
)

func main() {
	ctx := context.Background()
	cal, err := paradigm.CalibrateContext(ctx, paradigm.NewCM5(64))
	if err != nil {
		log.Fatal(err)
	}
	p, err := paradigm.ComplexMatMul(32, cal)
	if err != nil {
		log.Fatal(err)
	}
	m := paradigm.NewCM5(8)

	// A fault-free run gives the makespan the fail time is scaled by.
	clean, err := paradigm.RunContext(ctx, p, m, cal, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean run: %.6f s on 8 processors\n", clean.Actual)

	// Kill processor 2 a quarter of the way through. Without recovery
	// the run halts with a classified diagnosis.
	plan := &paradigm.FaultPlan{
		ProcFails: []paradigm.ProcFail{{Proc: 2, At: clean.Actual / 4}},
	}
	_, err = paradigm.RunContext(ctx, p, m, cal, 8, paradigm.WithFaultPlan(plan))
	if !errors.Is(err, paradigm.ErrProcessorLost) {
		log.Fatalf("want ErrProcessorLost, got %v", err)
	}
	var halt *paradigm.HaltError
	errors.As(err, &halt)
	fmt.Printf("without recovery: halted — %v (failed procs %v)\n", err, halt.Failed)

	// With recovery the halted run is salvaged, replanned on the seven
	// survivors, and resumed. The observer shows the fault, salvage and
	// replan events as they happen.
	rec := paradigm.NewEventRecorder()
	res, err := paradigm.RunContext(ctx, p, m, cal, 8,
		paradigm.WithFaultPlan(plan),
		paradigm.WithRecovery(2),
		paradigm.WithObserver(rec))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with recovery: survived loss of %v in %d attempt(s); recovered makespan %.6f s\n",
		res.FailedProcs, res.RecoveryAttempts, res.Actual)

	// Recovery is exact: restored blocks and re-run nodes repeat the
	// same floating-point summation orders as an undisturbed run.
	worst, err := paradigm.Verify(p, res.Sim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("numerical verification: max |deviation| = %.3g (bit-identical)\n", worst)
	if worst != 0 {
		log.Fatal("recovered run deviates from the sequential reference")
	}
}
