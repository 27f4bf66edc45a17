// Crash-safe scheduling: checkpoint the pipeline's stage boundaries to
// a write-ahead log, kill the run mid-flight, and resume it — the
// resumed result is bit-identical because every stage is deterministic.
// Then put the allocation stage under governance: a deadline budget,
// bounded retries, and a circuit breaker that degrades to the heuristic
// allocator instead of hanging the caller.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"paradigm"
)

func main() {
	cal, err := paradigm.CalibrateContext(context.Background(), paradigm.NewCM5(64))
	if err != nil {
		log.Fatal(err)
	}
	p, err := paradigm.ComplexMatMul(32, cal)
	if err != nil {
		log.Fatal(err)
	}
	m := paradigm.NewCM5(8)
	dir, err := os.MkdirTemp("", "paradigm-resilience")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	wal := filepath.Join(dir, "run.wal")

	// --- Part 1: kill a checkpointed run, then resume it. ---
	cp, err := paradigm.OpenCheckpoint(wal)
	if err != nil {
		log.Fatal(err)
	}
	// The commit hook fires only after a stage record is durable on
	// disk; cancelling there simulates a kill at the worst moment.
	ctx, cancel := context.WithCancel(context.Background())
	commits := 0
	cp.OnCommit(func(stage string, _ int) {
		commits++
		fmt.Printf("committed stage %q\n", stage)
		if commits == 3 { // die right after the schedule hits the WAL
			cancel()
		}
	})
	_, err = paradigm.RunContext(ctx, p, m, cal, 8, paradigm.WithCheckpoint(cp))
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	fmt.Printf("killed run: %v\n\n", err)

	resumed, err := paradigm.LoadCheckpoint(wal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resuming from committed stages %v\n", resumed.Stages())
	res, err := paradigm.RunContext(context.Background(), p, m, cal, 8,
		paradigm.WithCheckpoint(resumed))
	if err != nil {
		log.Fatal(err)
	}
	ref, err := paradigm.RunContext(context.Background(), p, m, cal, 8)
	if err != nil {
		log.Fatal(err)
	}
	if res.Actual != ref.Actual || res.Sim.Messages != ref.Sim.Messages {
		log.Fatalf("resumed run diverged: %v vs %v", res.Actual, ref.Actual)
	}
	fmt.Printf("resumed run is bit-identical: makespan %.6f s, %d messages\n\n",
		res.Actual, res.Sim.Messages)

	// A truncated WAL is refused with a typed sentinel — never resumed
	// silently from a torn prefix.
	data, err := os.ReadFile(wal)
	if err != nil {
		log.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.wal")
	if err := os.WriteFile(torn, data[:len(data)-4], 0o644); err != nil {
		log.Fatal(err)
	}
	if _, err := paradigm.LoadCheckpoint(torn); errors.Is(err, paradigm.ErrCheckpointCorrupt) {
		fmt.Printf("torn log refused: %v\n\n", err)
	} else {
		log.Fatalf("torn log accepted: %v", err)
	}

	// --- Part 2: deadline budgets, retry, and the circuit breaker. ---
	// An impossible 1ns allocation budget times the solver out; after
	// the retries trip the breaker, the call degrades to the heuristic
	// allocator instead of failing — and while the breaker stays open,
	// later calls shed straight to the heuristic.
	br := paradigm.NewBreaker(paradigm.BreakerOptions{Threshold: 2, Cooldown: time.Minute})
	ar, err := paradigm.AllocateContext(context.Background(), p.G, cal.Model(), 8,
		paradigm.WithStageBudgets(paradigm.StageBudgets{Allocate: time.Nanosecond}),
		paradigm.WithRetry(paradigm.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}),
		paradigm.WithBreaker(br))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("breaker %s: solver timed out twice, heuristic allocation Phi = %.6f s\n",
		br.State(), ar.Phi)
}
