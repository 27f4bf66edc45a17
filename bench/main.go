// Command bench is the repository's benchmark: seven workloads, each
// bottlenecked on a different layer of the PARADIGM pipeline or of the
// paradigmd service around it, measured from outside through public
// entry points. README.md in this directory is the catalogue: why each
// workload exists, what each metric means, which layer should move which
// number. BENCHMARK.json at the root of the checkout is the contract; it
// names the four workloads whose end-to-end metrics are bounded.
//
// One invocation measures one workload:
//
//	go run -C bench . --workload svc_hot --seed 42 --seconds 10 --trace 0
//
// and prints, as the last line of its standard output, one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, which also writes the spans it recorded). Without
// --workload it measures all seven both ways, each in a child process;
// --aa N runs every workload BENCHMARK.json names (or every one asked for)
// on N seeds twice and judges the run-to-run spread against its bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"paradigm"
)

// metricDef is one metric of BENCHMARK.json; per-layer ones have no bound.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchFile is BENCHMARK.json.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json, and loads it.
func findRoot() (string, *benchFile, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var bf benchFile
			if err := json.Unmarshal(data, &bf); err != nil {
				return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return dir, &bf, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", nil, errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// workload is one named set of inputs and the way it is measured.
type workload interface {
	// measure runs one pass; with a tracer it records spans at every
	// layer boundary it crosses.
	measure(e *env, seconds float64, tr *tracer) (*measurement, error)
	// layers turns a traced pass, and the untraced pass before it, into
	// the per-layer metrics.
	layers(e *env, untraced, traced *measurement, tr *tracer) (map[string]float64, error)
}

func specInputs(specs ...spec) func(*paradigm.Calibration) ([]input, error) {
	return func(cal *paradigm.Calibration) ([]input, error) {
		out := make([]input, len(specs))
		for i, sp := range specs {
			var err error
			if out[i], err = programInput(sp, cal); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// workloadOrder lists the catalogue in the order a run of everything
// takes it. BENCHMARK.json names the four of these the driver gates; the
// other three (plan_admm_layered1000, plan_hot, svc_dup) are measured the
// same way but only when asked for, because the driver's time limit buys
// either seven short runs or four long ones, and only long ones are steady
// on a shared host.
var workloadOrder = []string{"run_cmm256_p64", "run_strassen128_p64", "plan_admm_layered1000", "plan_hot", "svc_cold", "svc_hot", "svc_dup"}

// workloads is the catalogue; README.md says why each one exists. The
// solver options of plan_admm_layered1000 are pinned because the ADMM
// defaults take about 35 s on that graph. plan_hot's Strassen inputs stop
// at two sizes because each costs about 0.7 s of priming per set-up.
var workloads = map[string]workload{
	"run_cmm256_p64":      libWorkload{simulate: true, inputs: specInputs(spec{Program: "cmm", Size: 256, Procs: 64})},
	"run_strassen128_p64": libWorkload{simulate: true, inputs: specInputs(spec{Program: "strassen", Size: 128, Procs: 64})},
	"plan_admm_layered1000": libWorkload{
		solver: paradigm.AllocOptions{Backend: "admm", ADMM: paradigm.ADMMOptions{Subgraphs: 8, MaxIters: 6, SkipPolish: true}},
		inputs: func(*paradigm.Calibration) ([]input, error) {
			g, err := layeredMDG()
			return []input{{key: "layered1000|64", g: g, procs: 64}}, err
		},
	},
	"plan_hot": libWorkload{hot: true, inputs: specInputs(
		spec{Program: "cmm", Size: 32, Procs: 32}, spec{Program: "cmm", Size: 64, Procs: 32},
		spec{Program: "cmm", Size: 96, Procs: 32}, spec{Program: "cmm", Size: 128, Procs: 32},
		spec{Program: "strassen", Size: 64, Procs: 32}, spec{Program: "strassen", Size: 128, Procs: 32},
	)},
	"svc_cold": svcWorkload{jobs: 300, burst: 1, specs: func(n int, seed uint64) []spec { return gridSpecs(n, 0, seed) }},
	"svc_hot": svcWorkload{jobs: 2000, burst: 1, hot: true, specs: func(n int, seed uint64) []spec {
		out := make([]spec, n)
		for i := range out {
			out[i] = hotSpecs()[i%2]
		}
		return out
	}},
	"svc_dup": svcWorkload{jobs: 800, burst: 8, specs: func(n int, seed uint64) []spec { return gridSpecs(n, 1500, seed) }},
}

// env is one invocation's resolved configuration and shared state.
type env struct {
	ctx       context.Context
	tmp       string // scratch directory inside the checkout, removed at exit
	paradigmd string // the server binary (service workloads)
	seed      uint64
	quick     bool
	clients   int // C: client connections, and the server's -workers
	check     *checker
}

// scale shrinks an operation count by 20 in quick mode.
func (e *env) scale(n int) int {
	if e.quick {
		return max(n/20, 8)
	}
	return n
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildServer compiles cmd/paradigmd into the checkout's build directory.
// The compile is not part of any set-up time.
func buildServer(ctx context.Context, root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "paradigmd")
	tmp := fmt.Sprintf("%s.%d", bin, os.Getpid())
	cmd := exec.CommandContext(ctx, "go", "build", "-o", tmp, "./cmd/paradigmd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/paradigmd: %w\n%s", err, out)
	}
	// Renaming into place keeps a concurrent invocation from starting a
	// half-written binary.
	return bin, os.Rename(tmp, bin)
}

// options are the flags that shape one measurement.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	traceOut string
}

// runWorkload measures one workload in this process.
func runWorkload(ctx context.Context, root string, bf *benchFile, name string, o options) (result, error) {
	w, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", name)
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	e := &env{ctx: ctx, tmp: tmp, seed: o.seed, quick: o.quick, clients: min(runtime.NumCPU(), 4), check: newChecker()}
	if _, isService := w.(svcWorkload); isService {
		if e.paradigmd, err = buildServer(ctx, root, buildDir); err != nil {
			return result{}, err
		}
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v  quick %v  C %d  GOMAXPROCS %d  nproc %d\n",
		name, o.seed, o.seconds, o.trace, o.quick, e.clients, runtime.GOMAXPROCS(0), runtime.NumCPU())

	var (
		values    map[string]float64
		defs      = bf.EndToEnd
		attempted int
	)
	if !o.trace {
		m, err := w.measure(e, o.seconds, nil)
		if err != nil {
			return result{}, err
		}
		m.describe()
		values, attempted = m.endToEnd(e.check.refs), m.attempted
	} else {
		defs = bf.PerLayer
		untraced, err := w.measure(e, o.seconds/2, nil)
		if err != nil {
			return result{}, err
		}
		tr := newTracer()
		traced, err := w.measure(e, o.seconds/2, tr)
		if err != nil {
			return result{}, err
		}
		if values, err = w.layers(e, untraced, traced, tr); err != nil {
			return result{}, err
		}
		// The tail is not gated: on this kind of machine the 90th percentile
		// of a CPU-bound call measures the host's slow dips, not the program.
		var p90ok bool
		values["bench.op_p90_ms"], p90ok = percentile(untraced.pooled(), 0.9)
		fmt.Printf("  %d latency samples pooled; p90 has ten samples beyond it: %v\n", len(untraced.pooled()), p90ok)
		attempted = untraced.attempted + traced.attempted
		if o.traceOut == "" {
			o.traceOut = filepath.Join(buildDir, "trace-"+name+".json")
		}
		if err := tr.write(o.traceOut); err != nil {
			return result{}, err
		}
		fmt.Printf("%d spans written to %s\n", len(tr.spans), o.traceOut)
	}
	res := result{Correct: e.check.failed == 0, Attempted: attempted, Failed: e.check.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("BENCHMARK.json names metric %q, which %s does not measure", d.Name, name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	if e.check.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %d failed, first: %v\n", e.check.failed, e.check.firstErr)
	}
	return res, nil
}

// describe prints the samples behind the reported medians.
func (m *measurement) describe() {
	var rates []float64
	for _, r := range m.reps {
		rates = append(rates, r.rates...)
	}
	q1, q2, q3 := quartiles(rates)
	fmt.Printf("  ops_per_s: %d throughput samples, quartiles %.6g %.6g %.6g\n", len(rates), q1, q2, q3)
	for _, q := range []struct {
		name string
		f    func(repResult) float64
	}{
		{"setup_s", func(r repResult) float64 { return r.setupS }},
		{"peak_rss_mb", func(r repResult) float64 { return r.rssMB }},
	} {
		v := m.perRep(q.f)
		q1, q2, q3 = quartiles(v)
		fmt.Printf("  %s per repetition %.6g  quartiles %.6g %.6g %.6g\n", q.name, v, q1, q2, q3)
	}
	fmt.Printf("  %d latency samples pooled\n", len(m.pooled()))
}

func main() {
	var o options
	flag.Uint64Var(&o.seed, "seed", 42, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long one run measures (0: run_seconds of BENCHMARK.json)")
	flag.BoolVar(&o.quick, "quick", false, "service job counts divided by 20, one repetition: same code paths and checks, not a measurement")
	flag.StringVar(&o.traceOut, "trace-out", "", "where a traced run writes its spans (default .bench_build/trace-<workload>.json)")
	var (
		name  = flag.String("workload", "", "workload(s) to measure, comma-separated (empty: all; more than one: each in a child process)")
		trace = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced pass, per-layer metrics")
		aa    = flag.Int("aa", 0, "run every selected workload on this many seeds, twice, and judge the spread against the bounds")
		out   = flag.String("o", "", "also write the results of an all-workloads or A/A run to this JSON file")
	)
	flag.Parse()
	o.trace = *trace != 0
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *name, o, *aa, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, o options, aa int, out string) error {
	root, bf, err := findRoot()
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(bf.RunSeconds)
	}
	names := strings.Split(name, ",")
	if name == "" {
		names = workloadOrder
	}
	switch {
	case aa > 0:
		if name == "" {
			names = nil
			for _, w := range bf.Workloads {
				names = append(names, w.Name)
			}
		}
		return runAA(ctx, bf, names, o, aa, out)
	case len(names) > 1:
		return runAll(ctx, bf, names, o, out)
	}
	res, err := runWorkload(ctx, root, bf, names[0], o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}
