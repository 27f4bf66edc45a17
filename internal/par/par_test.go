package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersEnvOverride(t *testing.T) {
	t.Setenv(EnvWorkers, "3")
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	t.Setenv(EnvWorkers, "not-a-number")
	if got := Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() = %d, want NumCPU %d on invalid env", got, runtime.NumCPU())
	}
	t.Setenv(EnvWorkers, "-2")
	if got := Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() = %d, want NumCPU %d on negative env", got, runtime.NumCPU())
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		got, err := MapN(context.Background(), workers, 100, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestDoBoundsConcurrency(t *testing.T) {
	const workers = 4
	var cur, peak atomic.Int64
	err := DoN(context.Background(), workers, 64, func(context.Context, int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, bound is %d", p, workers)
	}
}

func TestFirstErrorPropagation(t *testing.T) {
	want := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := DoN(context.Background(), workers, 32, func(_ context.Context, i int) error {
			if i == 7 {
				return want
			}
			return nil
		})
		if !errors.Is(err, want) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, want)
		}
	}
}

func TestLowestIndexedErrorWins(t *testing.T) {
	// Every task fails; the reported error must be a task error, and for
	// the serial pool exactly task 0's.
	mk := func(i int) error { return fmt.Errorf("task %d", i) }
	if err := DoN(context.Background(), 1, 8, func(_ context.Context, i int) error { return mk(i) }); err == nil || err.Error() != "task 0" {
		t.Fatalf("serial err = %v, want task 0", err)
	}
	err := DoN(context.Background(), 4, 8, func(_ context.Context, i int) error { return mk(i) })
	if err == nil {
		t.Fatal("want an error")
	}
	// Parallel: lowest observed failure; with every task failing that is
	// one of the first `workers` claimed indices.
	var idx int
	if _, scanErr := fmt.Sscanf(err.Error(), "task %d", &idx); scanErr != nil {
		t.Fatalf("unexpected error %q", err)
	}
	if idx >= 4 {
		t.Fatalf("reported failure index %d, want one of the first claimed tasks", idx)
	}
}

// TestErrorCancelsRemainingTasks: once a task fails, no unstarted task
// starts. Every task but the failing one blocks until cancellation, so
// exactly the two first claimed (one per worker) run however the workers
// are scheduled; a pool that kept starting tasks after the failure would
// run the other 998 as well.
func TestErrorCancelsRemainingTasks(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("fail fast")
	err := DoN(context.Background(), 2, 1000, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n > 2 {
		t.Fatalf("%d tasks ran, want at most 2: tasks started after the failure", n)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := DoN(ctx, 4, 16, func(context.Context, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := DoN(ctx, 1, 0, func(context.Context, int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("n=0 err = %v, want context.Canceled", err)
	}
}

func TestSerialModeStopsAtFirstError(t *testing.T) {
	var ran []int
	err := DoN(context.Background(), 1, 10, func(_ context.Context, i int) error {
		ran = append(ran, i)
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if len(ran) != 4 {
		t.Fatalf("serial mode ran %v, want exactly tasks 0..3", ran)
	}
}

// A task's panic must reach the caller's goroutine at every width, so a
// recover the caller runs under contains it exactly as it contains the
// serial mode's.
func TestTaskPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				if r := recover(); r != "task 5 broke" {
					t.Errorf("workers=%d: recovered %v, want the task's panic value", workers, r)
				}
			}()
			err := DoN(context.Background(), workers, 32, func(_ context.Context, i int) error {
				if i == 5 {
					panic("task 5 broke")
				}
				return nil
			})
			t.Errorf("workers=%d: DoN returned %v instead of panicking", workers, err)
		}()
	}
}
