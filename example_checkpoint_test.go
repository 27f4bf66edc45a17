package paradigm_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"paradigm"
)

// A checkpointed run killed right after its schedule is durable, then
// resumed from the log: the resumed run is bit-identical, because every
// stage is deterministic. A torn log is refused, never resumed from a
// prefix. Last, the allocation stage under governance: an impossible
// budget times the solver out, and after the retries trip the breaker
// the call degrades to the heuristic allocator instead of failing.
func ExampleWithCheckpoint() {
	cal, err := paradigm.CalibrateContext(context.Background(), paradigm.NewCM5(64))
	if err != nil {
		log.Fatal(err)
	}
	p, err := paradigm.ComplexMatMul(32, cal)
	if err != nil {
		log.Fatal(err)
	}
	m := paradigm.NewCM5(8)
	dir, err := os.MkdirTemp("", "paradigm-checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	wal := filepath.Join(dir, "run.wal")

	cp, err := paradigm.CreateCheckpoint(wal)
	if err != nil {
		log.Fatal(err)
	}
	// The hook fires once a stage record is durable; cancelling there
	// stands in for a kill at the worst moment.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cp.OnCommit(func(stage string, _ int) {
		fmt.Printf("committed stage %q\n", stage)
		if stage == "sched" {
			cancel()
		}
	})
	_, err = paradigm.RunContext(ctx, p, m, cal, 8, paradigm.WithCheckpoint(cp))
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	fmt.Printf("killed run: %v\n", err)

	resumed, err := paradigm.LoadCheckpoint(wal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resuming from committed stages %v\n", resumed.Stages())
	res, err := paradigm.RunContext(context.Background(), p, m, cal, 8, paradigm.WithCheckpoint(resumed))
	if err != nil {
		log.Fatal(err)
	}
	ref, err := paradigm.RunContext(context.Background(), p, m, cal, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed run equals an uninterrupted one: %v (makespan %.6f s, %d messages)\n",
		res.Actual == ref.Actual && res.Sim.Messages == ref.Sim.Messages, res.Actual, res.Sim.Messages)

	data, err := os.ReadFile(wal)
	if err != nil {
		log.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.wal")
	if err := os.WriteFile(torn, data[:len(data)-4], 0o644); err != nil {
		log.Fatal(err)
	}
	_, err = paradigm.LoadCheckpoint(torn)
	if !errors.Is(err, paradigm.ErrCheckpointCorrupt) {
		log.Fatalf("torn log accepted: %v", err)
	}
	fmt.Printf("torn log refused: %s\n", strings.ReplaceAll(err.Error(), dir+string(filepath.Separator), ""))

	br := paradigm.NewBreaker(paradigm.BreakerOptions{Threshold: 2, Cooldown: time.Minute})
	ar, err := paradigm.AllocateContext(context.Background(), p.G, cal.Model(), 8,
		paradigm.WithStageBudgets(paradigm.StageBudgets{Allocate: time.Nanosecond}),
		paradigm.WithRetry(paradigm.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}),
		paradigm.WithBreaker(br))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("breaker %s: solver timed out twice, heuristic allocation Phi = %.6f s\n", br.State(), ar.Phi)

	// Output:
	// committed stage "meta"
	// committed stage "alloc"
	// committed stage "sched"
	// killed run: context canceled
	// resuming from committed stages [meta alloc sched]
	// resumed run equals an uninterrupted one: true (makespan 0.036127 s, 18 messages)
	// torn log refused: torn.wal: ckpt: corrupt checkpoint log: committed length 1852 exceeds 1848 file bytes
	// breaker open: solver timed out twice, heuristic allocation Phi = 0.036891 s
}
