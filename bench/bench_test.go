package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		p         float64
		want      float64
		supported bool
	}{
		{100, 0.9, 90, true}, // exactly ten samples beyond the 90th
		{99, 0.9, 90, false}, // nine beyond: p90 is refused below 100 samples
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{16, 0.9, 15, false}, // run_strassen128_p64's sample count
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.supported {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.supported)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing is supported")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 12, 11, 15, 30}, [3]float64{10.5, 12, 22.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-15 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestReportedValueIsMedianOverRepetitions(t *testing.T) {
	m := &measurement{reps: []repResult{
		{rates: []float64{100, 120}, setupS: 3, samples: []float64{5, 1}},
		{rates: []float64{400}, setupS: 1, samples: []float64{3}},
		{rates: []float64{110, 90}, setupS: 2, samples: []float64{4, 2}},
	}}
	if got := m.opsPerS(); got != 110 {
		t.Errorf("opsPerS = %g, want 110, the median of all five throughput samples, not their mean", got)
	}
	if got := m.median(func(r repResult) float64 { return r.setupS }); got != 2 {
		t.Errorf("median set-up = %g, want 2", got)
	}
	if got := m.pooled(); !reflect.DeepEqual(got, []float64{1, 2, 3, 4, 5}) {
		t.Errorf("pooled = %v", got)
	}
	if got := m.p50(); got != 3 {
		t.Errorf("p50 of the pooled samples = %g, want 3", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 70},
		{ID: 4, Parent: 3, Name: "c", Start: 45, End: 50},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // clipped to its parent's end
		{ID: 6, Parent: 0, Name: "op", Start: 200, End: 260},
	}
	want := map[int]int64{1: 100 - 20 - 30 - 10, 2: 20, 3: 30 - 5, 4: 5, 5: 30, 6: 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := selfByName(spans, 10)["op"]; !reflect.DeepEqual(got, []float64{4, 6}) {
		t.Errorf("self of the two ops in units of 10 = %v, want [4 6]", got)
	}
}

func TestLadderResidual(t *testing.T) {
	us := int64(1000)
	spans := []span{
		{ID: 1, Name: spanOp, Start: 0, End: 100 * us},
		{ID: 2, Parent: 1, Name: spanHash, Start: 0, End: 10 * us},
		{ID: 3, Parent: 1, Name: spanPlanHit, Start: 10 * us, End: 25 * us},
		{ID: 4, Parent: 1, Name: spanSim, Start: 25 * us, End: 95 * us, Counts: map[string]float64{"messages": 7}},
	}
	v := ladderMetrics(spans, 90, 90)
	// The hit contains its own hash: the standalone hash span explains
	// nothing, so 90 - (15 + 70) is left over.
	if got := v["paradigm.residual_us"]; got != 5 {
		t.Errorf("residual = %g, want 5", got)
	}
	if got := v["schedcache.hit_us"]; got != 5 {
		t.Errorf("hit self time = %g, want the hit minus its hash = 5", got)
	}
	if v["sim.run_ms"] != 0.07 || v["sim.messages"] != 7 || v["alloc.solve_ms"] != 0 {
		t.Errorf("stage metrics = %v", v)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a, b, c := gridSpecs(300, 0, 42), gridSpecs(300, 0, 42), gridSpecs(300, 0, 43)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different spec sequence")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seed, same spec sequence")
	}
	set := func(specs []spec) map[string]bool {
		m := map[string]bool{}
		for _, sp := range specs {
			if sp.Size < gridMinSize || sp.Size >= gridMinSize+gridSizes || sp.Procs < gridMinProcs || sp.Procs >= gridMinProcs+gridProcs {
				t.Errorf("spec %+v outside the grid", sp)
			}
			m[sp.key()] = true
		}
		return m
	}
	// The seed orders the specs; it never chooses them, or the quality
	// metrics could not be gated at 1e-9 across seeds.
	if !reflect.DeepEqual(set(a), set(c)) {
		t.Error("the seed changed the set of specs, not only their order")
	}
	if !reflect.DeepEqual(shuffledOrder(6, 1), shuffledOrder(6, 1)) || len(shuffledOrder(6, 1)) != 6 {
		t.Error("shuffledOrder is not a deterministic permutation")
	}
	g1, err := layeredMDG()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := layeredMDG()
	if err != nil {
		t.Fatal(err)
	}
	h1, _, err1 := g1.CanonicalHash()
	h2, _, err2 := g2.CanonicalHash()
	if err1 != nil || err2 != nil || h1 != h2 || g1.NumNodes() != 1002 {
		t.Errorf("layered MDG: %d nodes (want 1000 + START + STOP), hashes %q %q (%v, %v)", g1.NumNodes(), h1, h2, err1, err2)
	}
}

func TestServiceSpecsArePairwiseDistinct(t *testing.T) {
	for _, name := range []string{"svc_cold", "svc_dup"} {
		w := workloads[name].(svcWorkload)
		bursts := w.bursts(&env{seed: 42})
		seen := map[string]bool{}
		jobs := 0
		for _, b := range bursts {
			if len(b) != w.burst {
				t.Fatalf("%s: burst of %d, want %d", name, len(b), w.burst)
			}
			for _, sp := range b[1:] {
				if sp != b[0] {
					t.Errorf("%s: burst mixes %+v and %+v", name, b[0], sp)
				}
			}
			if seen[b[0].key()] {
				t.Errorf("%s: spec %s appears in two bursts of one repetition", name, b[0].key())
			}
			seen[b[0].key()] = true
			jobs += len(b)
		}
		if jobs != w.jobs {
			t.Errorf("%s: %d jobs per repetition, want %d", name, jobs, w.jobs)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileLint holds BENCHMARK.json to the driver's contract and
// to this directory: every workload is implemented, and README.md says
// for every per-layer metric which end-to-end metric it should move on
// which workload.
func TestBenchmarkFileLint(t *testing.T) {
	root, bf, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil || info.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, or larger than 64 KiB", err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
	// 4 + 22 runs per workload must fit in 3420 s. Beside its measured
	// seconds a run spends up to 8 s on linking, set-ups and the gate's
	// references; a tenth of the limit stays spare for the two builds and a
	// slow spell of the machine.
	if runs := 4 + 22*len(bf.Workloads); runs*(bf.RunSeconds+8) > 3420*9/10 {
		t.Errorf("%d runs of %d s + 8 s do not fit in nine tenths of 3420 s", runs, bf.RunSeconds)
	}
	names := map[string]bool{}
	unique := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not made of at most 64 letters, digits, _ . -", kind, name)
		}
		if names[name] {
			t.Errorf("name %q is used twice", name)
		}
		names[name] = true
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads in BENCHMARK.json, want 2 to 8", n)
	}
	if len(workloadOrder) != len(workloads) {
		t.Errorf("workloadOrder lists %d workloads, %d are implemented", len(workloadOrder), len(workloads))
	}
	for _, name := range workloadOrder {
		if _, ok := workloads[name]; !ok {
			t.Errorf("workloadOrder names %q, which is not implemented", name)
		}
	}
	for _, w := range bf.Workloads {
		unique("workload", w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	hasSetup := false
	for _, d := range bf.EndToEnd {
		unique("end-to-end", d.Name)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range bf.PerLayer {
		unique("per-layer", d.Name)
		if d.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
		// Its README row: | `name` | unit | what | should move | on |.
		row := regexp.MustCompile("(?m)^\\| `" + regexp.QuoteMeta(d.Name) + "` \\|(.*)$").FindStringSubmatch(string(readme))
		if row == nil {
			t.Errorf("README.md has no table row for per-layer metric %s", d.Name)
			continue
		}
		cells := strings.Split(row[1], "|")
		if len(cells) < 5 {
			t.Errorf("README.md row of %s has %d cells, want unit, what, should move, on", d.Name, len(cells))
			continue
		}
		mentions := func(cell string, known func(string) bool) bool {
			for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cell, -1) {
				if known(m[1]) {
					return true
				}
			}
			return false
		}
		if !mentions(cells[2], func(s string) bool {
			for _, e := range bf.EndToEnd {
				if e.Name == s {
					return true
				}
			}
			return false
		}) {
			t.Errorf("README.md row of %s names no end-to-end metric it should move: %q", d.Name, cells[2])
		}
		if !mentions(cells[3], func(s string) bool { _, ok := workloads[s]; return ok }) {
			t.Errorf("README.md row of %s names no workload: %q", d.Name, cells[3])
		}
	}
	for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
}

// TestQuickRunsEveryWorkload proves that all seven workloads, their
// checks and the traced pass still run: quick mode takes the same code
// paths with job counts divided by 20 and one repetition.
func TestQuickRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots paradigmd and runs every workload")
	}
	root, bf, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				res, err := runWorkload(context.Background(), root, bf, name, options{seed: 42, seconds: 0.1, trace: traced, quick: true, traceOut: filepath.Join(t.TempDir(), "spans.json")})
				if err != nil {
					t.Fatal(err)
				}
				defs := bf.EndToEnd
				if traced {
					defs = bf.PerLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
					t.Errorf("correct %v, failed %d of %d, %d metrics (want %d)", res.Correct, res.Failed, res.Attempted, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if v := res.Metrics[d.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
						t.Errorf("%s = %v", d.Name, v)
					}
				}
			})
		}
	}
}
