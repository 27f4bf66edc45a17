package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"paradigm"
	"paradigm/internal/jobstore"
)

// svcWorkload is a workload whose operation is one job through a live
// paradigmd: submit, then poll until terminal. Every repetition boots a
// fresh server and sends it a fixed number of jobs, because paradigmd
// keeps every job's result and slows as that heap grows: a rate is only
// comparable at a stated job count.
type svcWorkload struct {
	jobs  int  // measured jobs per repetition
	burst int  // identical jobs submitted back to back (1: none)
	hot   bool // every measured job must be a schedule-cache hit
	// specs returns the distinct specs of one repetition, in seeded order.
	specs func(n int, seed uint64) []spec
}

// warmUpJobs precede the measured phase on every service workload: the
// two hot specs alternating, which also primes them for the hot workload.
const warmUpJobs = 40

func (w svcWorkload) bursts(e *env) [][]spec {
	n := e.scale(w.jobs) / w.burst
	distinct := w.specs(n, e.seed)
	out := make([][]spec, len(distinct))
	for i, sp := range distinct {
		for k := 0; k < w.burst; k++ {
			out[i] = append(out[i], sp)
		}
	}
	return out
}

// counters are the /metrics series whose growth over the measured phase
// says which path the jobs took.
var counters = []string{"sched_cache_hit_total", "alloc_cache_miss_total", "paradigmd_jobs_coalesced_total"}

// rep boots a server, warms it up, drives one repetition's jobs through
// it and stops it again.
func (w svcWorkload) rep(e *env, bursts [][]spec, tr *tracer) (repResult, error) {
	var out repResult
	t0 := time.Now()
	srv, err := startServer(e.paradigmd, e.tmp, e.clients)
	if err != nil {
		return out, err
	}
	defer srv.stop()
	clients := make([]*client, e.clients)
	for i := range clients {
		clients[i] = newClient(srv.base)
	}
	warm := make([]spec, warmUpJobs)
	for i := range warm {
		warm[i] = hotSpecs()[i%2]
	}
	warmed, _ := runJobs(e.ctx, clients, single(warm), nil)
	for _, r := range warmed {
		if r.err != nil || r.view.Status != "done" {
			return out, fmt.Errorf("warm-up job %s: status %q: %v %s", r.spec.key(), r.view.Status, r.err, r.view.Error)
		}
	}
	out.setupS, out.bootMS = time.Since(t0).Seconds(), ms(srv.boot)

	before, err := clients[0].scrape()
	if err != nil {
		return out, err
	}
	rss0, err := procStatusKB(srv.cmd.Process.Pid, "VmRSS")
	if err != nil {
		return out, err
	}
	var elapsed time.Duration
	out.jobs, elapsed = runJobs(e.ctx, clients, bursts, tr)
	after, err := clients[0].scrape()
	if err != nil {
		return out, err
	}
	rss1, err := procStatusKB(srv.cmd.Process.Pid, "VmRSS")
	if err != nil {
		return out, err
	}
	hwm, err := procStatusKB(srv.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return out, err
	}
	out.rssMB = hwm / 1024
	out.rssKBPerJob = (rss1 - rss0) / float64(len(out.jobs))
	out.counters = map[string]float64{}
	for _, name := range counters {
		out.counters[name] = after[name] - before[name]
	}
	for _, j := range out.jobs {
		if j.err == nil && j.view.Status == "done" {
			out.samples = append(out.samples, j.ms)
		}
	}
	out.rates = []float64{float64(len(out.samples)) / elapsed.Seconds()}
	out.measured = elapsed
	return out, nil
}

// measure repeats rep until the measured phases add up to the asked
// seconds, then gates every job against an in-process reference.
func (w svcWorkload) measure(e *env, seconds float64, tr *tracer) (*measurement, error) {
	m := &measurement{}
	bursts := w.bursts(e)
	distinct := make([]spec, len(bursts))
	for i, b := range bursts {
		distinct[i] = b[0]
		for _, sp := range b {
			m.mix = append(m.mix, sp.key())
		}
	}
	var measured time.Duration
	for len(m.reps) == 0 || measured.Seconds() < seconds {
		if e.ctx.Err() != nil {
			return nil, e.ctx.Err()
		}
		r, err := w.rep(e, bursts, tr)
		if err != nil {
			return nil, err
		}
		measured += r.measured
		m.reps = append(m.reps, r)
		m.attempted += len(r.jobs)
		jobs := float64(len(r.jobs))
		if hits := r.counters["sched_cache_hit_total"]; w.hot && hits != jobs {
			e.check.fail(fmt.Errorf("hot repetition: %v schedule-cache hits for %v jobs", hits, jobs))
		} else if !w.hot && w.burst == 1 && hits != 0 {
			e.check.fail(fmt.Errorf("cold repetition: %v schedule-cache hits, want none", hits))
		}
	}
	if err := e.references(distinct); err != nil {
		return nil, err
	}
	for _, r := range m.reps {
		for _, j := range r.jobs {
			switch ref := e.check.refs[j.spec.key()]; {
			case j.err != nil:
				e.check.fail(j.err)
			case j.view.Status != "done":
				e.check.fail(fmt.Errorf("job %s (%s): %s: %s", j.view.ID, j.spec.key(), j.view.Status, j.view.Error))
			case (outcome{phi: j.view.Phi, makespan: j.view.Actual, digest: j.view.Digest}) != ref:
				e.check.fail(fmt.Errorf("job %s (%s): result differs from the in-process reference", j.view.ID, j.spec.key()))
			}
		}
	}
	return m, nil
}

// references makes sure every spec has a verified in-process
// reference: a plain RunContext of the same spec whose simulated arrays
// match the sequential reference. The work is spread over the clients'
// worth of goroutines.
func (e *env) references(specs []spec) error {
	pl, err := newPipeline(paradigm.AllocOptions{}, true, false, false)
	if err != nil {
		return err
	}
	var todo []spec
	seen := map[string]bool{}
	for _, sp := range specs {
		if _, ok := e.check.refs[sp.key()]; !ok && !seen[sp.key()] {
			seen[sp.key()] = true
			todo = append(todo, sp)
		}
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan spec)
	)
	for i := 0; i < e.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range next {
				in, err := programInput(sp, pl.cal)
				var p product
				if err == nil {
					p, _, err = pl.bundled(e.ctx, in)
				}
				if err == nil {
					err = verify(in, pl.model, p)
				}
				mu.Lock()
				if err != nil {
					e.check.fail(fmt.Errorf("reference %s: %w", sp.key(), err))
				} else {
					e.check.refs[sp.key()] = p.outcome()
				}
				mu.Unlock()
			}
		}()
	}
	for _, sp := range todo {
		next <- sp
	}
	close(next)
	wg.Wait()
	return nil
}

// replaySample bounds how many distinct specs of the mix the in-process
// replay runs.
const replaySample = 40

// layers derives the per-layer metrics of a service workload: what the
// clients saw (spans), which path the jobs took (/metrics), what the
// server's memory did (/proc), and an in-process replay of the same spec
// mix through the ladder, which says how much of a job is the pipeline
// and how much the service around it.
func (w svcWorkload) layers(e *env, untraced, traced *measurement, tr *tracer) (map[string]float64, error) {
	clientSpans := len(tr.spans)
	var distinct []spec
	seen := map[string]bool{}
	for _, sp := range w.specs(min(e.scale(w.jobs)/w.burst, replaySample), e.seed) {
		if !seen[sp.key()] {
			seen[sp.key()] = true
			distinct = append(distinct, sp)
		}
	}
	bundledUS, objects, mb, calibrateMS, err := w.replay(e, distinct, tr, traced.attempted)
	if err != nil {
		return nil, err
	}
	var all []float64
	for _, times := range bundledUS {
		all = append(all, times...)
	}
	v := ladderMetrics(tr.spans[clientSpans:], median(all), mean(all))
	v["paradigm.allocs_per_op"], v["paradigm.alloc_mb_per_op"] = objects, mb
	v["trainsets.calibrate_ms"] = calibrateMS

	self := selfByName(tr.spans[:clientSpans], time.Microsecond)
	v["paradigmd.submit_rtt_us"] = median(self[spanSubmit])
	v["paradigmd.poll_rtt_us"] = median(self[spanPoll])
	v["paradigmd.polls_per_job"] = mean(spanCounts(tr.spans[:clientSpans], spanJob, "polls"))
	// The overhead is taken spec by spec — what the clients saw for a spec
	// minus what the same spec costs in-process — so that the replay being
	// a sample of the mix does not enter it.
	observed := untraced.byKey()
	var overhead []float64
	for key, times := range bundledUS {
		overhead = append(overhead, median(observed[key])-median(times)/1000)
	}
	v["paradigmd.service_overhead_ms"] = median(overhead)

	both := &measurement{reps: append(append([]repResult(nil), untraced.reps...), traced.reps...)}
	v["paradigmd.job_p99_ms"], _ = percentile(both.pooled(), 0.99)
	v["paradigmd.boot_ms"] = both.median(func(r repResult) float64 { return r.bootMS })
	v["paradigmd.rss_kb_per_job"] = both.median(func(r repResult) float64 { return r.rssKBPerJob })
	perJob := func(counter string) float64 {
		return both.median(func(r repResult) float64 { return r.counters[counter] / float64(len(r.jobs)) })
	}
	v["paradigmd.sched_cache_hit_share"] = perJob("sched_cache_hit_total")
	v["paradigmd.solves_per_job"] = perJob("alloc_cache_miss_total")
	v["paradigmd.coalesced_share"] = perJob("paradigmd_jobs_coalesced_total")
	v["bench.trace_overhead_pct"] = 100 * (1 - traced.opsPerS()/untraced.opsPerS())

	if v["jobstore.append_submit_us"], v["jobstore.append_state_us"], err = journalAppends(e.tmp); err != nil {
		return nil, err
	}
	if v["ckpt.run_overhead_us"], err = checkpointOverhead(e, hotSpecs()[0]); err != nil {
		return nil, err
	}
	return v, nil
}

// replay runs the specs in-process the way a paradigmd worker does —
// build the program, RunContext with the service's caches attached,
// digest — once bundled on a pipeline of its own (its median is the whole
// the ladder must add up to, and what the service overhead is measured
// against), once unbundled with spans. A hot workload's pipelines are
// primed first. The bundled times come back in µs by spec key.
func (w svcWorkload) replay(e *env, specs []spec, tr *tracer, firstOp int) (bundledUS map[string][]float64, objects, mb, calibrateMS float64, err error) {
	job := func(pl *pipeline, sp spec) error {
		in, err := programInput(sp, pl.cal)
		if err != nil {
			return err
		}
		p, _, err := pl.bundled(e.ctx, in)
		if err != nil {
			return err
		}
		_ = p.res.Digest()
		return nil
	}
	var pls [2]*pipeline
	for i := range pls {
		if pls[i], err = newPipeline(paradigm.AllocOptions{}, true, true, w.hot); err != nil {
			return
		}
		for _, sp := range specs {
			if !w.hot {
				break
			}
			if err = job(pls[i], sp); err != nil {
				return
			}
		}
	}
	// A hot mix has two specs: repeat it so the medians have samples. The
	// bundled and the unbundled job of a spec run right after each other,
	// so that a slow spell of the machine falls on both alike.
	rounds := 1
	if w.hot {
		rounds = 50
	}
	bundledUS = map[string][]float64{}
	var before, after runtime.MemStats
	for r := 0; r < rounds; r++ {
		for i, sp := range specs {
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			if err = job(pls[0], sp); err != nil {
				return
			}
			bundledUS[sp.key()] = append(bundledUS[sp.key()], us(time.Since(t0)))
			runtime.ReadMemStats(&after)
			objects += float64(after.Mallocs - before.Mallocs)
			mb += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
			p, uerr := pls[1].unbundled(tr, firstOp+r*len(specs)+i, input{}, &sp)
			if uerr != nil {
				err = uerr
				return
			}
			if got, ref := p.outcome(), e.check.refs[sp.key()]; got != ref {
				err = fmt.Errorf("replay %s: unbundled result %+v differs from the reference %+v", sp.key(), got, ref)
				return
			}
		}
	}
	n := float64(rounds * len(specs))
	objects, mb = objects/n, mb/n
	return bundledUS, objects, mb, ms(pls[0].calibrate+pls[1].calibrate) / 2, nil
}

// journalAppends times the two journal appends every job pays — the
// submit record and a state transition — on a 4-shard store like the
// server's.
func journalAppends(tmp string) (submitUS, stateUS float64, err error) {
	dir, err := os.MkdirTemp(tmp, "journal-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	store, _, err := jobstore.OpenSharded(dir, 4, nil)
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	var submits, states []float64
	for i := 0; i < 200; i++ {
		id := strconv.Itoa(i + 1)
		t0 := time.Now()
		if err := store.AppendSubmit(jobstore.Submit{ID: id, Program: "cmm", Size: 16, Procs: 4, Tenant: "default"}); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if err := store.AppendState(jobstore.State{ID: id, Status: jobstore.StatusRunning}); err != nil {
			return 0, 0, err
		}
		t2 := time.Now()
		submits = append(submits, us(t1.Sub(t0)))
		states = append(states, us(t2.Sub(t1)))
	}
	return median(submits), median(states), nil
}

// checkpointOverhead is what a per-job write-ahead log costs one
// RunContext: the median with a fresh log (create, commit every stage,
// close) minus the median without, both on a primed pipeline so that the
// difference is not lost in solver time, and always on the small hot
// spec so that it is not lost in simulator time either.
func checkpointOverhead(e *env, sp spec) (float64, error) {
	pl, err := newPipeline(paradigm.AllocOptions{}, true, true, true)
	if err != nil {
		return 0, err
	}
	in, err := programInput(sp, pl.cal)
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(e.tmp, "wal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	run := func(ctx context.Context, wal string) (time.Duration, error) {
		opts := pl.opts
		t0 := time.Now()
		var cp *paradigm.Checkpoint
		if wal != "" {
			var err error
			if cp, err = paradigm.CreateCheckpoint(wal); err != nil {
				return 0, err
			}
			opts = append(opts[:len(opts):len(opts)], paradigm.WithCheckpoint(cp))
		}
		_, err := paradigm.RunContext(ctx, in.prog, paradigm.NewCM5(in.procs), pl.cal, in.procs, opts...)
		if cp != nil {
			if cerr := cp.Close(); err == nil {
				err = cerr
			}
		}
		return time.Since(t0), err
	}
	var plain, logged []float64
	for i := 0; i <= 40; i++ {
		a, err := run(e.ctx, "")
		if err != nil {
			return 0, err
		}
		b, err := run(e.ctx, filepath.Join(dir, strconv.Itoa(i)+".wal"))
		if err != nil {
			return 0, err
		}
		if i > 0 { // the first pair primes the caches
			plain = append(plain, us(a))
			logged = append(logged, us(b))
		}
	}
	return median(logged) - median(plain), nil
}
