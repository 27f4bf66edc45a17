// Package par is the shared bounded worker pool behind every parallel
// layer of the reproduction: the experiment drivers fan individual
// artifacts and (program, procs) cells through it, the training-sets
// calibration fans its measurement sweep, and the simulator fans the
// members of a group barrier.
//
// The pool is deliberately small: indexed fan-out with ordered results,
// context cancellation, first-error propagation, and a width taken from
// PARADIGM_WORKERS (falling back to runtime.NumCPU). Determinism is the
// design constraint — callers assemble results by task index, never by
// completion order, so a run with PARADIGM_WORKERS=1 and a run at full
// width produce byte-identical outputs.
package par

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable overriding the pool width.
const EnvWorkers = "PARADIGM_WORKERS"

// Workers reports the default pool width: PARADIGM_WORKERS when set to a
// positive integer, otherwise runtime.NumCPU. It is consulted on every
// call, so tests can retarget the width with t.Setenv.
func Workers() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.NumCPU()
}

// Do runs fn(ctx, i) for every i in [0, n) on at most Workers()
// goroutines and waits for all of them. See DoN for the error contract.
func Do(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return DoN(ctx, Workers(), n, fn)
}

// DoN is Do with an explicit worker bound. With workers <= 1 the tasks
// run inline in index order, stopping at the first error — the serial
// reference behaviour. With more workers, tasks are claimed from an
// atomic counter; on failure the pool context is cancelled (so running
// tasks can bail early and unstarted tasks are skipped) and the error of
// the lowest-indexed observed failure is returned. Because a failing
// task fails regardless of schedule, that is the same task the serial
// mode would have stopped at whenever all lower-indexed tasks succeed.
// A task that panics counts as a failure, and when it is the one reported
// its panic value is re-raised on the calling goroutine once every worker
// has stopped — where the serial mode raises it, inside whatever recover
// the caller runs under, instead of killing the process from a goroutine
// no caller can guard.
func DoN(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu        sync.Mutex
		failIdx   = -1
		failErr   error
		failPanic any // non-nil: task failIdx panicked with this value
		claimed   atomic.Int64
		wg        sync.WaitGroup
	)
	record := func(i int, err error, panicked any) {
		mu.Lock()
		if failIdx == -1 || i < failIdx {
			failIdx, failErr, failPanic = i, err, panicked
		}
		mu.Unlock()
		cancel()
	}
	// run is one task; it reports whether the worker should go on.
	run := func(i int) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				record(i, nil, r)
				ok = false
			}
		}()
		if err := fn(cctx, i); err != nil {
			record(i, err, nil)
			return false
		}
		return true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(claimed.Add(1)) - 1
				if i >= n {
					return
				}
				if err := cctx.Err(); err != nil {
					return
				}
				if !run(i) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if failPanic != nil {
		panic(failPanic)
	}
	if failErr != nil {
		return failErr
	}
	return ctx.Err()
}

// Map runs fn over [0, n) through Do and returns the results ordered by
// task index, independent of completion order.
func Map[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapN(ctx, Workers(), n, fn)
}

// MapN is Map with an explicit worker bound.
func MapN[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := DoN(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
