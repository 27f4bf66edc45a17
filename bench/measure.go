package main

import "time"

// repResult is one repetition: its own set-up, then a measured phase.
type repResult struct {
	setupS float64
	// rates are the repetition's throughput samples in operations per
	// second: one per rateWindow of a library repetition, one for the whole
	// measured phase of a service repetition.
	rates       []float64
	samples     []float64 // ms per completed operation
	calibrateMS float64   // library repetitions
	// rssMB is the peak resident set (VmHWM) of the process that ran the
	// program under test in this repetition: the server of a service
	// repetition, the benchmark itself since the repetition began otherwise.
	rssMB float64
	// Service repetitions only.
	measured    time.Duration
	bootMS      float64
	rssKBPerJob float64 // server VmRSS growth over the measured phase
	counters    map[string]float64
	jobs        []jobResult
}

// measurement is one pass (untraced or traced) of one workload.
type measurement struct {
	attempted int
	reps      []repResult
	// mix lists the input keys of one repetition, one entry per operation
	// of a service repetition and one per distinct input of a library one:
	// the weights of the quality means.
	mix []string
	// Traced library passes only: the bundled operation timed beside each
	// traced one (µs), and the heap one bundled operation allocates.
	pairedUS                  []float64
	allocsPerOp, allocMBPerOp float64
}

// perRep lists one quantity of every repetition.
func (m *measurement) perRep(f func(repResult) float64) []float64 {
	v := make([]float64, len(m.reps))
	for i, r := range m.reps {
		v[i] = f(r)
	}
	return v
}

// median is the reported value of a per-repetition quantity.
func (m *measurement) median(f func(repResult) float64) float64 { return median(m.perRep(f)) }

// opsPerS is the median of every repetition's throughput samples.
func (m *measurement) opsPerS() float64 {
	var all []float64
	for _, r := range m.reps {
		all = append(all, r.rates...)
	}
	return median(all)
}

// pooled returns every repetition's samples together, ascending.
func (m *measurement) pooled() []float64 {
	var all []float64
	for _, r := range m.reps {
		all = append(all, r.samples...)
	}
	return sorted(all)
}

func (m *measurement) p50() float64 {
	v, _ := percentile(m.pooled(), 0.5)
	return v
}

// byKey groups the service jobs' latencies (ms) by spec key.
func (m *measurement) byKey() map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range m.reps {
		for _, j := range r.jobs {
			if j.err == nil && j.view.Status == "done" {
				out[j.spec.key()] = append(out[j.spec.key()], j.ms)
			}
		}
	}
	return out
}

// endToEnd assembles the end-to-end metrics of an untraced pass. The two
// quality metrics are means over the workload's input mix of the values
// the correctness gate confirmed every operation returned.
func (m *measurement) endToEnd(refs map[string]outcome) map[string]float64 {
	phi := make([]float64, len(m.mix))
	makespan := make([]float64, len(m.mix))
	for i, k := range m.mix {
		phi[i], makespan[i] = refs[k].phi*1000, refs[k].makespan*1000
	}
	return map[string]float64{
		"setup_s":        m.median(func(r repResult) float64 { return r.setupS }),
		"ops_per_s":      m.opsPerS(),
		"op_p50_ms":      m.p50(),
		"peak_rss_mb":    m.median(func(r repResult) float64 { return r.rssMB }),
		"model_phi":      exactMean(phi),
		"model_makespan": exactMean(makespan),
	}
}

// ladderMetrics reads the per-layer metrics of the in-process ladder out
// of its spans. opUS and opMeanUS are the median and the mean of the
// bundled operation the ladder unbundles. The residual is what the stage
// spans leave unexplained of it, taken between means: over a mix of
// inputs means add up and medians do not. A layer the workload never
// enters reports 0: no time, no work.
func ladderMetrics(spans []span, opUS, opMeanUS float64) map[string]float64 {
	self := selfByName(spans, time.Microsecond)
	stage := func(name string) float64 {
		if len(self[name]) == 0 {
			return 0
		}
		return median(self[name])
	}
	count := func(name, count string) float64 {
		if c := spanCounts(spans, name, count); len(c) > 0 {
			return median(c)
		}
		return 0
	}
	v := map[string]float64{
		"programs.build_us":     stage(spanBuild),
		"mdg.canonical_hash_us": stage(spanHash),
		"alloc.solve_ms":        stage(spanSolve) / 1000,
		"alloc.final_evals":     count(spanSolve, "final_evals"),
		"alloc.solve_allocs":    count(spanSolve, "allocs"),
		"alloc.solve_alloc_mb":  count(spanSolve, "alloc_mb"),
		"sched.psa_us":          stage(spanPSA),
		"schedcache.hit_us":     0,
		"codegen.generate_us":   stage(spanCodegen),
		"codegen.instrs":        count(spanCodegen, "instrs"),
		"sim.run_ms":            stage(spanSim) / 1000,
		"sim.messages":          count(spanSim, "messages"),
		"sim.alloc_mb":          count(spanSim, "alloc_mb"),
		"paradigm.digest_us":    stage(spanDigest),
		"paradigm.op_us":        opUS,
	}
	hits := len(self[spanPlanHit]) > 0
	if hits {
		v["schedcache.hit_us"] = stage(spanPlanHit) - stage(spanHash)
	}
	// A hit contains its own canonical hash; the hash span beside it is a
	// second, separate computation and explains nothing of the operation.
	var explained, ops float64
	for _, s := range spans {
		switch {
		case s.Name == spanOp:
			ops++
		case !hits || s.Name != spanHash:
			explained += float64(s.End-s.Start) / float64(time.Microsecond)
		}
	}
	v["paradigm.residual_us"] = opMeanUS - explained/ops
	return v
}
