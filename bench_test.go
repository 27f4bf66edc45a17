// Benchmarks of the pipeline and its layers: allocation, program build,
// code generation, simulation and the Run pairs behind the
// observability, recovery and checkpoint budgets. The experiment
// benchmarks, one per paper artifact, live in internal/experiments. Run
// with:
//
//	go test -run '^$' -bench=. -benchmem
package paradigm

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/codegen"
	"paradigm/internal/costmodel"
	"paradigm/internal/mdg"
	"paradigm/internal/prog"
	"paradigm/internal/programs"
	"paradigm/internal/sim"
	"paradigm/internal/trainsets"
)

// benchSetup is the machine the benchmarks run on, the 64-processor
// CM-5, and its training-sets calibration.
type benchSetup struct {
	Machine Machine
	Cal     *Calibration
}

var (
	benchOnce sync.Once
	benchEnv  benchSetup
	benchErr  error
)

func env(b *testing.B) *benchSetup {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv.Machine = NewCM5(64)
		benchEnv.Cal, benchErr = CalibrateContext(context.Background(), benchEnv.Machine)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return &benchEnv
}

// BenchmarkEndToEndStrassen64 measures one full pipeline run (allocate +
// schedule + codegen + simulate) of Strassen 128×128 on 64 processors —
// the heaviest single configuration in the paper.
func BenchmarkEndToEndStrassen64(b *testing.B) {
	e := env(b)
	cal := e.Cal
	p, err := Strassen(128, cal)
	if err != nil {
		b.Fatal(err)
	}
	m := NewCM5(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunContext(context.Background(), p, m, cal, 64)
		if err != nil {
			b.Fatal(err)
		}
		if res.Actual <= 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkAllocSolveCMM is the direct allocation fast path: one convex
// solve (expression-DAG compile, epigraph form, interior-point method) for
// the Complex Matrix Multiply MDG on 32 processors. iters/op is the
// solver's iteration count, a property of the method, not of the box.
func BenchmarkAllocSolveCMM(b *testing.B) {
	e := env(b)
	p, err := programs.ComplexMatMul(64, e.Cal)
	if err != nil {
		b.Fatal(err)
	}
	benchSolve(b, p.G, e.Cal.Model(), 32)
}

func benchSolve(b *testing.B, g *mdg.Graph, model costmodel.Model, procs int) {
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := alloc.Solve(g, model, procs, alloc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		iters = r.Solver.Iters
	}
	b.ReportMetric(float64(iters), "iters/op")
}

// BenchmarkAllocSolveStrassen128 is the paper's headline solve: the
// 35-node Strassen MDG at n=128 on 64 processors of the trained CM-5,
// solved exactly over its 20 automorphism orbits — 73 variables and 108
// constraints in epigraph form, 16 interior-point iterations, where the
// annealed ladder before it took 825 evaluations of Φ.
func BenchmarkAllocSolveStrassen128(b *testing.B) {
	e := env(b)
	p, err := programs.Strassen(128, e.Cal)
	if err != nil {
		b.Fatal(err)
	}
	benchSolve(b, p.G, e.Cal.Model(), 64)
}

// BenchmarkBuildStrassen128 builds the same program from scratch — what a
// service worker paid per job before programs were interned, and the
// guard on AddEdge staying O(1): with an index rebuilt per edge this was
// ≈ 600 µs, linear in the edges it is ≈ 70.
func BenchmarkBuildStrassen128(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := programs.Strassen(128, e.Cal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocSolveWarmCache measures the allocation cache's exact-hit
// replay: CMM-64 at p=32, primed once outside the timer, then served
// entirely from the cache (canonical hash + lookup + permute back, no
// compile, no solve).
func BenchmarkAllocSolveWarmCache(b *testing.B) {
	e := env(b)
	p, err := programs.ComplexMatMul(64, e.Cal)
	if err != nil {
		b.Fatal(err)
	}
	model := e.Cal.Model()
	opts := alloc.Options{Cache: alloc.NewCache(8)}
	if _, err := alloc.Solve(p.G, model, 32, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := alloc.Solve(p.G, model, 32, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.CacheOutcome != "hit" {
			b.Fatalf("outcome %q, want hit", res.CacheOutcome)
		}
	}
}

// benchLayeredMDG builds a 1000-node layered DAG: 100 layers × 10 nodes,
// 1-2 successors each.
func benchLayeredMDG() *mdg.Graph {
	rng := rand.New(rand.NewSource(42))
	var g mdg.Graph
	const layers, width = 100, 10
	ids := make([][]mdg.NodeID, layers)
	for l := range ids {
		ids[l] = make([]mdg.NodeID, width)
		for w := 0; w < width; w++ {
			ids[l][w] = g.AddNode(mdg.Node{
				Alpha: 0.1 + 0.8*rng.Float64(),
				Tau:   1e-3 + 1e-2*rng.Float64(),
			})
		}
	}
	for l := 0; l+1 < layers; l++ {
		for w := 0; w < width; w++ {
			for _, dst := range []int{w, (w + 1) % width}[:1+rng.Intn(2)] {
				g.AddEdge(ids[l][w], ids[l+1][dst], mdg.Transfer{
					Bytes: 256 << rng.Intn(6),
					Kind:  mdg.Transfer1D,
				})
			}
		}
	}
	return &g
}

// BenchmarkAllocSolveLayered1000 is the exact solve on that 1000-node
// layered MDG at p = 64: the size at which the
// interior-point method's sparse factorisation, not its iteration count,
// sets the cost. iters/op is the solver's iteration count.
func BenchmarkAllocSolveLayered1000(b *testing.B) {
	benchSolve(b, benchLayeredMDG(), env(b).Cal.Model(), 64)
}

// BenchmarkRunNilObserver is the full pipeline (allocate, schedule,
// generate, simulate) for the Complex Matrix Multiply on 16 processors
// with no observer attached: the instrumented code paths pay one nil
// check per would-be event. Its pair below attaches a recorder and a
// metrics registry; the delta is the total cost of the observability
// layer.
func BenchmarkRunNilObserver(b *testing.B) {
	e := env(b)
	p, err := programs.ComplexMatMul(64, e.Cal)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), p, e.Machine, e.Cal, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunWithObserver is BenchmarkRunNilObserver with the full
// observer stack attached: an event recorder plus a metrics registry
// fanned out through MultiObserver.
func BenchmarkRunWithObserver(b *testing.B) {
	e := env(b)
	p, err := programs.ComplexMatMul(64, e.Cal)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := NewMetrics()
		ob := MultiObserver(NewEventRecorder(), NewMetricsObserver(reg))
		if _, err := RunContext(context.Background(), p, e.Machine, e.Cal, 16, WithObserver(ob)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunNoFaults is the full Complex Matrix Multiply pipeline on
// 16 processors with the fault machinery idle (no plan, no recovery):
// the baseline the recovery benchmark below is compared against, and
// the regression guard for the fault-injection hooks on the clean path.
func BenchmarkRunNoFaults(b *testing.B) {
	e := env(b)
	p, err := programs.ComplexMatMul(64, e.Cal)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), p, e.Machine, e.Cal, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunWithRecovery kills one processor a quarter of the way
// through the run and measures the full survive-and-replan cycle:
// halted simulation, salvage, residual program, re-allocation, PSA on
// the survivors, code generation and the recovery run.
func BenchmarkRunWithRecovery(b *testing.B) {
	e := env(b)
	p, err := programs.ComplexMatMul(64, e.Cal)
	if err != nil {
		b.Fatal(err)
	}
	clean, err := RunContext(context.Background(), p, e.Machine, e.Cal, 16)
	if err != nil {
		b.Fatal(err)
	}
	plan := &FaultPlan{ProcFails: []ProcFail{{Proc: 1, At: clean.Actual / 4}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunContext(context.Background(), p, e.Machine, e.Cal, 16,
			WithFaultPlan(plan), WithRecovery(2))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Recovered {
			b.Fatal("benchmark plan did not trigger recovery")
		}
	}
}

// BenchmarkRunCMM256P64 is the full Complex Matrix Multiply pipeline at
// the paper's production scale (n=256 on 64 processors): the benchmark's
// run_cmm256_p64 operation, nine tenths of it the simulator moving and
// multiplying real float64 blocks (DESIGN.md §7, "Simulator data plane").
func BenchmarkRunCMM256P64(b *testing.B) {
	e := env(b)
	p, err := programs.ComplexMatMul(256, e.Cal)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), p, e.Machine, e.Cal, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSim plans each program on its processor count once, then
// simulates the generated streams of all of them every iteration.
func benchSim(b *testing.B, build func(n int) (*prog.Program, error), shapes ...[2]int) {
	e := env(b)
	type job struct {
		p       *prog.Program
		streams *codegen.Streams
	}
	jobs := make([]job, len(shapes))
	for i, s := range shapes {
		p, err := build(s[0])
		if err != nil {
			b.Fatal(err)
		}
		planned, err := RunContext(context.Background(), p, e.Machine, e.Cal, s[1])
		if err != nil {
			b.Fatal(err)
		}
		streams, err := codegen.Generate(p, planned.Sched)
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = job{p, streams}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if _, err := sim.Run(j.p, j.streams, e.Machine); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchGenerate plans the program on 64 processors once, then lowers the
// schedule to MPMD code every iteration: codegen alone.
func benchGenerate(b *testing.B, build func(cal *trainsets.Calibration) (*prog.Program, error)) {
	e := env(b)
	p, err := build(e.Cal)
	if err != nil {
		b.Fatal(err)
	}
	planned, err := RunContext(context.Background(), p, e.Machine, e.Cal, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Generate(p, planned.Sched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateStrassen128P64 is the codegen stage of the benchmark's
// run_strassen128_p64 operation (DESIGN.md §7, "MPMD code by index").
func BenchmarkGenerateStrassen128P64(b *testing.B) {
	benchGenerate(b, func(cal *trainsets.Calibration) (*prog.Program, error) { return programs.Strassen(128, cal) })
}

// BenchmarkGenerateCMM256P64 is the codegen stage of run_cmm256_p64.
func BenchmarkGenerateCMM256P64(b *testing.B) {
	benchGenerate(b, func(cal *trainsets.Calibration) (*prog.Program, error) { return programs.ComplexMatMul(256, cal) })
}

// BenchmarkSimRunCMM256P64 is the simulator's share of the run above
// alone: the same program's generated streams, planned once and
// simulated every iteration.
func BenchmarkSimRunCMM256P64(b *testing.B) {
	benchSim(b, func(n int) (*prog.Program, error) { return programs.ComplexMatMul(n, env(b).Cal) }, [2]int{256, 64})
}

// BenchmarkSimRunStrassen128P64 is the simulator's share of the paper's
// headline program, Strassen-128 on 64 processors.
func BenchmarkSimRunStrassen128P64(b *testing.B) {
	benchSim(b, func(n int) (*prog.Program, error) { return programs.Strassen(n, env(b).Cal) }, [2]int{128, 64})
}

// BenchmarkSimRunServiceMix simulates six CMM shapes (n on p processors)
// of the size a cold paradigmd job has; one iteration runs all six.
func BenchmarkSimRunServiceMix(b *testing.B) {
	benchSim(b, func(n int) (*prog.Program, error) { return programs.ComplexMatMul(n, env(b).Cal) },
		[2]int{40, 8}, [2]int{56, 23}, [2]int{64, 16}, [2]int{80, 20}, [2]int{100, 30}, [2]int{127, 35})
}

// BenchmarkSimRunServiceHot simulates the two specs a hot paradigmd
// alternates, CMM-16 on 4 and on 8 processors; one iteration runs both.
// It is where a per-barrier or per-row cost of the data plane shows
// against runs that tiny.
func BenchmarkSimRunServiceHot(b *testing.B) {
	benchSim(b, func(n int) (*prog.Program, error) { return programs.ComplexMatMul(n, env(b).Cal) },
		[2]int{16, 4}, [2]int{16, 8})
}

// BenchmarkRunNoCheckpoint is BenchmarkRunCMM256P64 under the name its
// pair below knows it by: the baseline the WAL overhead is measured
// against (the <3% budget of DESIGN.md §11).
func BenchmarkRunNoCheckpoint(b *testing.B) { BenchmarkRunCMM256P64(b) }

// BenchmarkRunWithCheckpoint is the same pipeline with a write-ahead
// checkpoint log attached: five stage commits per run on a fresh WAL,
// each an encode + CRC + record append + commit-pointer publish
// (process-crash durability, the default — see DESIGN.md §11).
func BenchmarkRunWithCheckpoint(b *testing.B) {
	e := env(b)
	p, err := programs.ComplexMatMul(256, e.Cal)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := CreateCheckpoint(filepath.Join(dir, "bench.wal"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunContext(context.Background(), p, e.Machine, e.Cal, 64, WithCheckpoint(cp)); err != nil {
			b.Fatal(err)
		}
		cp.Close()
	}
}
