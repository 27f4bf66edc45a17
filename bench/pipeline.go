package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"paradigm"
	"paradigm/internal/alloc"
	"paradigm/internal/codegen"
	"paradigm/internal/oracle"
	"paradigm/internal/programs"
	"paradigm/internal/sched"
	"paradigm/internal/sim"
)

// opDeadline bounds one operation: a hung call or job becomes a counted
// failure instead of a hung benchmark.
const opDeadline = 30 * time.Second

// input is one distinct thing the library is asked to plan or run.
type input struct {
	key   string
	prog  *paradigm.Program // nil for a bare graph, which can only be planned
	g     *paradigm.Graph
	procs int
}

func programInput(sp spec, cal *paradigm.Calibration) (input, error) {
	var (
		p   *paradigm.Program
		err error
	)
	switch sp.Program {
	case "cmm":
		p, err = programs.ComplexMatMul(sp.Size, cal)
	case "strassen":
		p, err = programs.Strassen(sp.Size, cal)
	default:
		err = fmt.Errorf("unknown program %q", sp.Program)
	}
	if err != nil {
		return input{}, err
	}
	return input{key: sp.key(), prog: p, g: p.G, procs: sp.Procs}, nil
}

// product is what one in-process operation returned.
type product struct {
	alloc paradigm.Allocation
	sched *paradigm.Schedule
	res   *paradigm.Result // nil for plan-only operations
}

// outcome is the part of a product (or of a service job view) that must
// repeat exactly for the same input.
type outcome struct {
	phi, makespan float64
	digest        string // simulated runs only
}

func (p product) outcome() outcome {
	if p.res != nil {
		return outcome{phi: p.alloc.Phi, makespan: p.res.Actual, digest: p.res.Digest()}
	}
	return outcome{phi: p.alloc.Phi, makespan: p.sched.Makespan}
}

// pipeline is one configured way of calling the library in-process: the
// operation of a library workload, and the replay of a service
// workload's job mix.
type pipeline struct {
	cal      *paradigm.Calibration
	model    paradigm.Model
	solver   paradigm.AllocOptions // pinned solver options, no cache
	simulate bool                  // RunContext, else AllocateAndScheduleContext
	cached   bool                  // exact-only schedule and allocation caches, as paradigmd attaches them
	hits     bool                  // every measured operation must replay from the schedule cache
	opts     []paradigm.Option
	// calibrate is how long the training-sets calibration took.
	calibrate time.Duration
}

func newPipeline(solver paradigm.AllocOptions, simulate, cached, hits bool) (*pipeline, error) {
	t0 := time.Now()
	cal, err := paradigm.Calibrate(paradigm.NewCM5(64))
	if err != nil {
		return nil, err
	}
	pl := &pipeline{cal: cal, model: cal.Model(), solver: solver, simulate: simulate, cached: cached, hits: hits, calibrate: time.Since(t0)}
	ao := solver
	if cached {
		ao.Cache, ao.CacheExactOnly = paradigm.NewAllocCache(128), true
		pl.opts = append(pl.opts, paradigm.WithScheduleCache(paradigm.NewScheduleCache(256, 4)))
	}
	pl.opts = append(pl.opts, paradigm.WithAllocOptions(ao))
	return pl, nil
}

// bundled is the operation as a user calls it, timed from outside.
func (pl *pipeline) bundled(ctx context.Context, in input) (product, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	t0 := time.Now()
	if pl.simulate {
		res, err := paradigm.RunContext(ctx, in.prog, paradigm.NewCM5(in.procs), pl.cal, in.procs, pl.opts...)
		dt := time.Since(t0)
		if err != nil {
			return product{}, dt, err
		}
		return product{alloc: res.Alloc, sched: res.Sched, res: res}, dt, nil
	}
	ar, s, err := paradigm.AllocateAndScheduleContext(ctx, in.g, pl.model, in.procs, pl.opts...)
	return product{alloc: ar, sched: s}, time.Since(t0), err
}

// Span names of the unbundled ladder; the per-layer metrics are read back
// from the trace under these names.
const (
	spanOp      = "op"
	spanBuild   = "programs.build"
	spanHash    = "mdg.canonical_hash"
	spanSolve   = "alloc.solve"
	spanPSA     = "sched.psa"
	spanPlanHit = "paradigm.plan_hit"
	spanCodegen = "codegen.generate"
	spanSim     = "sim.run"
	spanDigest  = "paradigm.digest"
)

// unbundled performs the same operation as bundled by calling each layer
// directly, with a span around each call. sp is non-nil for a service
// replay, whose jobs also build their program and digest their result.
// A pipeline whose operations are cache hits cannot be unbundled past
// the cache (its key builder is private to package paradigm): there the
// planning half is one plan_hit span, and the canonical hash it contains
// is timed once more on its own beside it.
func (pl *pipeline) unbundled(tr *tracer, op int, in input, sp *spec) (product, error) {
	root := tr.begin(op, 0, spanOp)
	defer func() { tr.end(root, nil) }()
	// stage wraps one layer call in a span. With heap set it also counts
	// what the call allocated; ReadMemStats stops the world, so both
	// readings sit outside the span.
	stage := func(name string, heap bool, f func() (map[string]float64, error)) error {
		var before, after runtime.MemStats
		if heap {
			runtime.ReadMemStats(&before)
		}
		id := tr.begin(op, root, name)
		counts, err := f()
		tr.end(id, counts)
		if heap {
			runtime.ReadMemStats(&after)
			tr.annotate(id, "allocs", float64(after.Mallocs-before.Mallocs))
			tr.annotate(id, "alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		}
		return err
	}
	if sp != nil {
		if err := stage(spanBuild, false, func() (_ map[string]float64, err error) {
			in, err = programInput(*sp, pl.cal)
			return nil, err
		}); err != nil {
			return product{}, err
		}
	}
	if pl.cached {
		if err := stage(spanHash, false, func() (map[string]float64, error) {
			_, _, err := in.g.CanonicalHash()
			return nil, err
		}); err != nil {
			return product{}, err
		}
	}
	var out product
	if pl.hits {
		if err := stage(spanPlanHit, false, func() (_ map[string]float64, err error) {
			out.alloc, out.sched, err = paradigm.AllocateAndScheduleContext(context.Background(), in.g, pl.model, in.procs, pl.opts...)
			return nil, err
		}); err != nil {
			return product{}, err
		}
	} else {
		if err := stage(spanSolve, true, func() (_ map[string]float64, err error) {
			out.alloc, err = alloc.Solve(in.g, pl.model, in.procs, pl.solver)
			return map[string]float64{"final_evals": float64(out.alloc.Solver.Evals)}, err
		}); err != nil {
			return product{}, err
		}
		if err := stage(spanPSA, false, func() (_ map[string]float64, err error) {
			out.sched, err = sched.Run(in.g, pl.model, out.alloc.P, in.procs, sched.Options{})
			return nil, err
		}); err != nil {
			return product{}, err
		}
	}
	if !pl.simulate {
		return out, nil
	}
	var streams *codegen.Streams
	if err := stage(spanCodegen, false, func() (_ map[string]float64, err error) {
		if streams, err = codegen.Generate(in.prog, out.sched); err != nil {
			return nil, err
		}
		st := streams.Stats()
		return map[string]float64{"instrs": float64(st.Sends + st.Recvs + st.Moves + st.Execs)}, nil
	}); err != nil {
		return product{}, err
	}
	var simRes *sim.Result
	if err := stage(spanSim, true, func() (_ map[string]float64, err error) {
		if simRes, err = sim.Run(in.prog, streams, paradigm.NewCM5(in.procs).WithProcs(in.procs)); err != nil {
			return nil, err
		}
		return map[string]float64{"messages": float64(simRes.Messages)}, nil
	}); err != nil {
		return product{}, err
	}
	out.res = &paradigm.Result{Alloc: out.alloc, Sched: out.sched, Sim: simRes, Predicted: out.sched.Makespan, Actual: simRes.Makespan}
	if sp != nil {
		_ = stage(spanDigest, false, func() (map[string]float64, error) {
			_ = out.res.Digest()
			return nil, nil
		})
	}
	return out, nil
}

// checker is the correctness gate. The first product seen for an input
// is verified in full and becomes that input's reference; every later
// product, and every service job view, must equal it exactly.
type checker struct {
	refs     map[string]outcome
	failed   int
	firstErr error
}

func newChecker() *checker { return &checker{refs: map[string]outcome{}} }

func (c *checker) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// verify checks one product independently of the code that made it: the
// allocation and the schedule against the oracle's re-derivation, and a
// simulated run against the program's sequential reference.
func verify(in input, model paradigm.Model, p product) error {
	if err := oracle.CheckAllocation(in.g, model, in.procs, p.alloc, oracle.Options{}); err != nil {
		return fmt.Errorf("%s: %w", in.key, err)
	}
	if err := oracle.CheckSchedule(in.g, model, p.sched); err != nil {
		return fmt.Errorf("%s: %w", in.key, err)
	}
	if p.res != nil {
		dev, err := paradigm.Verify(in.prog, p.res.Sim)
		if err != nil {
			return fmt.Errorf("%s: %w", in.key, err)
		}
		if dev > 1e-9 {
			return fmt.Errorf("%s: simulated arrays deviate from the sequential reference by %g", in.key, dev)
		}
	}
	return nil
}

// observe gates one in-process product.
func (c *checker) observe(in input, model paradigm.Model, p product) {
	got := p.outcome()
	ref, ok := c.refs[in.key]
	if !ok {
		if err := verify(in, model, p); err != nil {
			c.fail(err)
			return
		}
		c.refs[in.key] = got
		return
	}
	if got != ref {
		c.fail(fmt.Errorf("%s: result %+v differs from the verified reference %+v", in.key, got, ref))
	}
}
