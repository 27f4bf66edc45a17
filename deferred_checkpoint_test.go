// Deferred checkpoints (OpenDeferredCheckpoint): a log whose file is born
// at the first stage worth logging must, from that moment, be the log an
// eager checkpoint would have written — byte for byte, event for event —
// and a run that never reaches such a stage must leave nothing behind and
// lose nothing by it.
package paradigm

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"paradigm/internal/obs"
)

// checkpointEvents filters a recorder down to its Checkpoint events.
func checkpointEvents(rec *EventRecorder) []obs.Checkpoint {
	var out []obs.Checkpoint
	for _, e := range rec.Events() {
		if c, ok := e.(obs.Checkpoint); ok {
			out = append(out, c)
		}
	}
	return out
}

// runBothWays runs the same call once on an eager and once on a deferred
// checkpoint and requires equal digests; it returns the two WAL paths,
// the deferred checkpoint and both Checkpoint event sequences. Each side
// gets the caches prime() builds, so both see the same cache state.
func runBothWays(t *testing.T, p *Program, m Machine, cal *Calibration, procs int, prime func() []Option) (eagerPath, lazyPath string, lazy *Checkpoint, eagerEv, lazyEv []obs.Checkpoint) {
	t.Helper()
	dir := t.TempDir()
	eagerPath, lazyPath = filepath.Join(dir, "eager.wal"), filepath.Join(dir, "lazy.wal")
	eager, err := CreateCheckpoint(eagerPath)
	if err != nil {
		t.Fatal(err)
	}
	if lazy, err = OpenDeferredCheckpoint(lazyPath); err != nil {
		t.Fatal(err)
	}
	run := func(cp *Checkpoint) (*Result, []obs.Checkpoint) {
		rec := NewEventRecorder()
		res, err := RunContext(context.Background(), p, m, cal, procs,
			append(prime(), WithCheckpoint(cp), WithObserver(rec))...)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.Close(); err != nil {
			t.Fatal(err)
		}
		return res, checkpointEvents(rec)
	}
	a, eagerEv := run(eager)
	b, lazyEv := run(lazy)
	if a.Digest() != b.Digest() {
		t.Fatalf("deferred checkpoint changed the result: %s vs %s", b.Digest(), a.Digest())
	}
	return eagerPath, lazyPath, lazy, eagerEv, lazyEv
}

func requireSameWAL(t *testing.T, eagerPath, lazyPath string) {
	t.Helper()
	want, err := os.ReadFile(eagerPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(lazyPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("materialized WAL (%d bytes) differs from the eager WAL (%d bytes)", len(got), len(want))
	}
}

// A run that solves its allocation materializes at the alloc commit: the
// file and the Checkpoint events are exactly the eager log's.
func TestDeferredCheckpointSolvedRunMatchesEager(t *testing.T) {
	cal := testCal(t)
	p := buildProgram(t, cal, "cmm32")
	cold := func() []Option {
		return []Option{WithScheduleCache(NewScheduleCache(8, 1)),
			WithAllocOptions(AllocOptions{Cache: NewAllocCache(8)})}
	}
	eagerPath, lazyPath, lazy, eagerEv, lazyEv := runBothWays(t, p, NewCM5(8), cal, 8, cold)
	requireSameWAL(t, eagerPath, lazyPath)
	if !reflect.DeepEqual(lazyEv, eagerEv) || len(lazyEv) != 4 {
		t.Fatalf("Checkpoint events differ:\n deferred %+v\n eager    %+v", lazyEv, eagerEv)
	}
	if got := lazy.Stages(); len(got) != 4 {
		t.Fatalf("materialized checkpoint lists %v", got)
	}
}

// A run whose whole plan replays from the schedule cache never creates
// the file, emits no Checkpoint event, and reaches the same digest.
func TestDeferredCheckpointReplayedRunLeavesNothing(t *testing.T) {
	cal := testCal(t)
	p := buildProgram(t, cal, "cmm32")
	m := NewCM5(8)
	sc, ac := NewScheduleCache(8, 1), NewAllocCache(8)
	warm := func() []Option {
		return []Option{WithScheduleCache(sc), WithAllocOptions(AllocOptions{Cache: ac})}
	}
	if _, err := RunContext(context.Background(), p, m, cal, 8, warm()...); err != nil {
		t.Fatal(err)
	}
	eagerPath, lazyPath, lazy, eagerEv, lazyEv := runBothWays(t, p, m, cal, 8, warm)
	if len(eagerEv) != 4 {
		t.Fatalf("eager log committed %d stages, want 4", len(eagerEv))
	}
	if _, err := os.Stat(eagerPath); err != nil {
		t.Fatal(err)
	}
	if len(lazyEv) != 0 || len(lazy.Stages()) != 0 {
		t.Fatalf("replayed run logged: events %+v, stages %v", lazyEv, lazy.Stages())
	}
	if names, err := os.ReadDir(filepath.Dir(lazyPath)); err != nil || len(names) != 1 {
		t.Fatalf("replayed run left files behind: %v %v", names, err)
	}
}

// A replayed allocation followed by a fault: the salvage is what
// materializes the log, with every earlier stage encoded only then — and
// still byte-identical to the eager log, whose stages were encoded as
// they happened. A resume from the materialized log restores every stage
// and lands on the identical run.
func TestDeferredCheckpointSalvageMaterializes(t *testing.T) {
	cal := testCal(t)
	p := buildProgram(t, cal, "cmm32")
	m := NewCM5(8)
	hint := cleanMakespan(t, p, m, cal, 8)
	for seed := uint64(1); seed <= 8; seed++ {
		plan, err := RandomFaultPlan(seed, FaultRandOptions{Procs: 8, MakespanHint: hint, ProcFails: 1, MsgDelays: 1})
		if err != nil {
			t.Fatal(err)
		}
		ac := NewAllocCache(8)
		warm := func() []Option {
			return []Option{WithAllocOptions(AllocOptions{Cache: ac}),
				WithFaultPlan(plan), WithRecovery(2)}
		}
		ref, err := RunContext(context.Background(), p, m, cal, 8, warm()...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !ref.Recovered {
			continue
		}
		eagerPath, lazyPath, _, eagerEv, lazyEv := runBothWays(t, p, m, cal, 8, warm)
		requireSameWAL(t, eagerPath, lazyPath)
		if !reflect.DeepEqual(lazyEv, eagerEv) {
			t.Fatalf("seed %d: Checkpoint events differ:\n deferred %+v\n eager    %+v", seed, lazyEv, eagerEv)
		}
		re, err := LoadCheckpoint(lazyPath)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewEventRecorder()
		got, err := RunContext(context.Background(), p, m, cal, 8, append(warm(), WithCheckpoint(re), WithObserver(rec))...)
		if err != nil {
			t.Fatalf("seed %d resume: %v", seed, err)
		}
		requireIdenticalRuns(t, "cmm32", 8, p, ref, got)
		resumed := 0
		for _, e := range rec.Events() {
			if _, ok := e.(obs.Resume); ok {
				resumed++
			}
		}
		if want := len(eagerEv) - 1; resumed != want { // every stage but meta
			t.Fatalf("seed %d: resume restored %d stages, want %d", seed, resumed, want)
		}
		return
	}
	t.Fatal("no seed exercised the recovery path")
}

// Killed right after the commit that materialized it, a deferred log
// resumes like any other.
func TestDeferredCheckpointKillAndResume(t *testing.T) {
	cal := testCal(t)
	p := buildProgram(t, cal, "cmm32")
	m := NewCM5(16)
	ref, err := RunContext(context.Background(), p, m, cal, 16)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.wal")
	cp, err := OpenDeferredCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var durable []string
	cp.OnCommit(func(stage string, _ int) {
		durable = append(durable, stage)
		if stage == "alloc" {
			cancel()
		}
	})
	if _, err := RunContext(ctx, p, m, cal, 16, WithCheckpoint(cp)); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted run = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(durable, []string{"meta", "alloc"}) {
		t.Fatalf("durable at the kill: %v", durable)
	}
	re, err := OpenDeferredCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), p, m, cal, 16, WithCheckpoint(re))
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalRuns(t, "cmm32", 16, p, ref, got)
}

// TestInternedProgramConcurrentRuns is the assertion behind the
// service's program interning: nothing in the pipeline writes through a
// *Program, so one built program serves any number of concurrent runs.
// Eight goroutines run one shared CMM and one shared Strassen program
// fifty times each — under -race — and every digest must equal that of a
// program built for the run alone.
func TestInternedProgramConcurrentRuns(t *testing.T) {
	cal := testCal(t)
	runs := 50
	if testing.Short() {
		runs = 5
	}
	for _, name := range []string{"cmm32", "strassen16"} {
		m := NewCM5(8)
		// The fresh program's run also fills the caches, so the shared
		// runs replay its plan: what they exercise at once is the shared
		// program itself — its lazy graph index and canonical-form memo,
		// code generation, the simulator — not eight copies of one solve.
		sc, ac := NewScheduleCache(8, 2), NewAllocCache(8)
		opts := []Option{WithScheduleCache(sc), WithAllocOptions(AllocOptions{Cache: ac})}
		fresh, err := RunContext(context.Background(), buildProgram(t, cal, name), m, cal, 8, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Digest()
		shared := buildProgram(t, cal, name)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < runs; i++ {
					res, err := RunContext(context.Background(), shared, m, cal, 8, opts...)
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
					if got := res.Digest(); got != want {
						t.Errorf("%s: shared-program digest %s, fresh-program digest %s", name, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
