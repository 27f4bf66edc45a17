package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"paradigm"
)

// libReps is how many times a library workload sets up and measures in
// one run: each repetition calibrates, builds its inputs and warms up
// afresh, so set-up time is a median of several set-ups. Quick mode makes
// one.
func (e *env) libReps() int {
	if e.quick {
		return 1
	}
	return 5
}

// rateWindow is how much operation time one throughput sample of a
// library workload covers. The reported rate is the median over these
// windows, not the mean over the run: the machine's slow dips last a few
// seconds each, and a mean carries every one of them.
const rateWindow = 500 * time.Millisecond

// libWorkload is a workload whose operation is one in-process library
// call on one caller goroutine.
type libWorkload struct {
	simulate bool                  // RunContext, else AllocateAndScheduleContext
	solver   paradigm.AllocOptions // pinned solver options
	hot      bool                  // primed caches; every measured operation must be a schedule-cache hit
	inputs   func(cal *paradigm.Calibration) ([]input, error)
}

// libRep is one repetition's state after set-up.
type libRep struct {
	pl     *pipeline
	inputs []input
	order  []int // seeded visiting order over inputs
}

// setUp does everything that precedes the first timed operation: the
// calibration, building the inputs, one operation per input (which on a
// hot workload primes the caches) and, on a hot workload, a second pass
// that must already hit. The warm-up products are returned for the
// caller to gate once set-up time has been taken.
func (w libWorkload) setUp(e *env) (*libRep, []product, error) {
	pl, err := newPipeline(w.solver, w.simulate, w.hot, w.hot)
	if err != nil {
		return nil, nil, err
	}
	r := &libRep{pl: pl}
	if r.inputs, err = w.inputs(pl.cal); err != nil {
		return nil, nil, err
	}
	r.order = shuffledOrder(len(r.inputs), e.seed)
	passes := 1
	if w.hot {
		passes = 2
	}
	var warm []product
	for pass := 0; pass < passes; pass++ {
		for _, in := range r.inputs {
			p, _, err := pl.bundled(e.ctx, in)
			if err != nil {
				return nil, nil, fmt.Errorf("warm-up %s: %w", in.key, err)
			}
			warm = append(warm, p)
		}
	}
	return r, warm, nil
}

// measure runs libReps repetitions, each a set-up followed by its share
// of the seconds in back-to-back operations, cut into rateWindow-long
// throughput samples. With a tracer the operations are the unbundled
// ladder instead of the bundled call.
func (w libWorkload) measure(e *env, seconds float64, tr *tracer) (*measurement, error) {
	m := &measurement{}
	op, reps := 0, e.libReps()
	for rep := 0; rep < reps; rep++ {
		// Each repetition has a peak of its own, like each server of a
		// service workload: the heap goes back to the system and the
		// kernel's high-water mark starts again.
		debug.FreeOSMemory()
		resetPeakRSS()
		t0 := time.Now()
		r, warm, err := w.setUp(e)
		if err != nil {
			return nil, err
		}
		out := repResult{setupS: time.Since(t0).Seconds(), calibrateMS: ms(r.pl.calibrate)}
		for i, p := range warm {
			e.check.observe(r.inputs[i%len(r.inputs)], r.pl.model, p)
		}
		var busy time.Duration // operation time of the open window
		inWindow := 0
		deadline := time.Now().Add(time.Duration(seconds / float64(reps) * float64(time.Second)))
		for i := 0; i == 0 || time.Now().Before(deadline); i++ {
			if e.ctx.Err() != nil {
				return nil, e.ctx.Err()
			}
			in := r.inputs[r.order[i%len(r.order)]]
			var (
				p  product
				dt time.Duration
			)
			if tr == nil {
				p, dt, err = r.pl.bundled(e.ctx, in)
			} else {
				t := time.Now()
				p, err = r.pl.unbundled(tr, op, in, nil)
				dt = time.Since(t)
			}
			op++
			m.attempted++
			busy += dt
			if err != nil {
				e.check.fail(fmt.Errorf("%s: %w", in.key, err))
				continue
			}
			out.samples = append(out.samples, ms(dt))
			if inWindow++; busy >= rateWindow {
				out.rates = append(out.rates, float64(inWindow)/busy.Seconds())
				busy, inWindow = 0, 0
			}
			// The gate runs between timed operations, never inside one.
			if w.hot && p.alloc.Backend != paradigm.BackendSchedCache {
				e.check.fail(fmt.Errorf("%s: backend %q, want %q", in.key, p.alloc.Backend, paradigm.BackendSchedCache))
			}
			e.check.observe(in, r.pl.model, p)
			if tr != nil {
				// The whole the ladder must add up to is timed right beside
				// each traced operation, so that a slow spell of the machine
				// falls on both alike.
				if _, dt, err = r.pl.bundled(e.ctx, in); err != nil {
					return nil, fmt.Errorf("%s: %w", in.key, err)
				}
				m.pairedUS = append(m.pairedUS, us(dt))
			}
		}
		hwm, err := procStatusKB(0, "VmHWM")
		if err != nil {
			return nil, err
		}
		out.rssMB = hwm / 1024
		// The window left open is dropped, unless it is all there is.
		if len(out.rates) == 0 && inWindow > 0 {
			out.rates = append(out.rates, float64(inWindow)/busy.Seconds())
		}
		m.reps = append(m.reps, out)
		if rep == 0 {
			for _, in := range r.inputs {
				m.mix = append(m.mix, in.key)
			}
		}
		if rep == reps-1 && tr != nil {
			if m.allocsPerOp, m.allocMBPerOp, err = heapPerOp(e.ctx, r); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// resetPeakRSS restarts the kernel's high-water mark of this process's
// resident set (VmHWM) at its present size. Where the kernel refuses, the
// mark stays cumulative and later repetitions report the run's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// heapPerOp counts what the bundled operation allocates, over whole
// passes of the inputs lasting about 0.3 s, with no checks in between.
func heapPerOp(ctx context.Context, r *libRep) (objects, mb float64, err error) {
	var before, after runtime.MemStats
	ops := 0
	runtime.ReadMemStats(&before)
	for t0 := time.Now(); ops == 0 || time.Since(t0) < 300*time.Millisecond; {
		for _, in := range r.inputs {
			if _, _, err := r.pl.bundled(ctx, in); err != nil {
				return 0, 0, err
			}
			ops++
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops), float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(ops), nil
}

// layers derives the per-layer metrics of a library workload from the
// traced ladder and the bundled operations timed beside it.
func (w libWorkload) layers(e *env, untraced, traced *measurement, tr *tracer) (map[string]float64, error) {
	v := ladderMetrics(tr.spans, median(traced.pairedUS), mean(traced.pairedUS))
	v["paradigm.allocs_per_op"] = traced.allocsPerOp
	v["paradigm.alloc_mb_per_op"] = traced.allocMBPerOp
	v["trainsets.calibrate_ms"] = traced.median(func(r repResult) float64 { return r.calibrateMS })
	v["bench.trace_overhead_pct"] = 100 * (1 - traced.opsPerS()/untraced.opsPerS())
	for _, name := range serviceLayers {
		v[name] = 0
	}
	return v, nil
}

// serviceLayers are the per-layer metrics only a service workload
// enters; a library workload reports them as 0.
var serviceLayers = []string{
	"jobstore.append_submit_us", "jobstore.append_state_us", "ckpt.run_overhead_us",
	"paradigmd.boot_ms", "paradigmd.submit_rtt_us", "paradigmd.poll_rtt_us", "paradigmd.polls_per_job",
	"paradigmd.service_overhead_ms", "paradigmd.job_p99_ms", "paradigmd.sched_cache_hit_share",
	"paradigmd.solves_per_job", "paradigmd.coalesced_share", "paradigmd.rss_kb_per_job",
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
