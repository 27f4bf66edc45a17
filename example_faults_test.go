package paradigm_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"paradigm"
)

// A processor killed mid-run. Without recovery the run halts with a
// classified diagnosis. With it the completed arrays are salvaged, the
// rest is replanned on the survivors, and the result still matches the
// sequential reference bit for bit.
func ExampleWithRecovery() {
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

	clean, err := paradigm.RunContext(ctx, p, m, cal, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean run: %.6f s on 8 processors\n", clean.Actual)

	// Kill processor 2 a quarter of the way through.
	plan := &paradigm.FaultPlan{
		ProcFails: []paradigm.ProcFail{{Proc: 2, At: clean.Actual / 4}},
	}
	_, err = paradigm.RunContext(ctx, p, m, cal, 8, paradigm.WithFaultPlan(plan))
	var halt *paradigm.HaltError
	if !errors.As(err, &halt) || !errors.Is(err, paradigm.ErrProcessorLost) {
		log.Fatalf("want a processor-loss halt, got %v", err)
	}
	fmt.Printf("without recovery: halted — %v (failed procs %v)\n", err, halt.Failed)

	res, err := paradigm.RunContext(ctx, p, m, cal, 8,
		paradigm.WithFaultPlan(plan), paradigm.WithRecovery(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with recovery: survived loss of %v in %d attempt(s); recovered makespan %.6f s\n",
		res.FailedProcs, res.RecoveryAttempts, res.Actual)
	worst, err := paradigm.Verify(p, res.Sim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max |deviation| from the sequential reference = %g\n", worst)

	// Output:
	// clean run: 0.036127 s on 8 processors
	// without recovery: halted — sim: processor lost; blocked processors: P0@recv(AiBi@5->8#0) P1@exec(node 8) P2@dead(pc 5/9) P3@exec(node 9) (failed procs [2])
	// with recovery: survived loss of [2] in 1 attempt(s); recovered makespan 0.019452 s
	// max |deviation| from the sequential reference = 0
}
