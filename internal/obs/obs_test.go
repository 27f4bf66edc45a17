package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestMultiNilCollapse(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	rec := NewRecorder()
	if Multi(nil, rec, nil) != Observer(rec) {
		t.Fatal("Multi with one live observer should return it unwrapped")
	}
	r2 := NewRecorder()
	m := Multi(rec, r2)
	m.Observe(PSAPick{Node: 3})
	if rec.Len() != 1 || r2.Len() != 1 {
		t.Fatalf("fan-out miss: %d/%d", rec.Len(), r2.Len())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.Observe(Comm{Bytes: i})
			}
		}()
	}
	wg.Wait()
	if rec.Len() != 800 {
		t.Fatalf("recorded %d events, want 800", rec.Len())
	}
}

func TestRegistryTextEncoding(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_count").Add(3)
	r.Counter("a_count").Inc()
	r.Gauge("phi").Set(0.125)
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	got := r.Snapshot().Text()
	want := strings.Join([]string{
		"counter a_count 1",
		"counter b_count 3",
		"gauge phi 0.125",
		"hist lat count=3 sum=55.5 1:1 10:1 +Inf:1",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("encoding mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryOrderIndependence is the core determinism property: the
// same multiset of updates applied in different orders (here: reversed)
// must encode byte-identically, including histogram sums.
func TestRegistryOrderIndependence(t *testing.T) {
	vals := []float64{0.1, 0.3, 1e-7, 123.456, 0.2, 7.7, 1e-7, 3.3}
	enc := func(order []float64) string {
		r := NewRegistry()
		h := r.Histogram("x", nil)
		for _, v := range order {
			h.Observe(v)
			r.Counter("n").Inc()
		}
		return r.Snapshot().Text()
	}
	rev := make([]float64, len(vals))
	for i, v := range vals {
		rev[len(vals)-1-i] = v
	}
	if a, b := enc(vals), enc(rev); a != b {
		t.Fatalf("order-dependent encoding:\n%s\nvs\n%s", a, b)
	}
}

// TestRegistryConcurrentDeterminism hammers one registry from 8
// goroutines and compares against a serial reference.
func TestRegistryConcurrentDeterminism(t *testing.T) {
	apply := func(r *Registry, worker int) {
		h := r.Histogram("obs", nil)
		c := r.Counter("total")
		for i := 0; i < 200; i++ {
			h.Observe(float64(i%17) * 0.013)
			c.Add(i % 5)
		}
	}
	serial := NewRegistry()
	for w := 0; w < 8; w++ {
		apply(serial, w)
	}
	conc := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) { defer wg.Done(); apply(conc, w) }(w)
	}
	wg.Wait()
	if a, b := serial.Snapshot().Text(), conc.Snapshot().Text(); a != b {
		t.Fatalf("concurrent encoding differs from serial:\n%s\nvs\n%s", a, b)
	}
}

func TestMetricsObserverFold(t *testing.T) {
	r := NewRegistry()
	o := MetricsObserver(r)
	o.Observe(SolverStage{Stage: 0, Gap: 0.1, Phi: 2.5, Iters: 10, Evals: 12})
	o.Observe(SolverStage{Stage: 1, Gap: 0.02, Phi: 2.4, Iters: 7, Evals: 8})
	o.Observe(PSARound{Node: 1, Continuous: 3.1, Rounded: 4, Final: 2, Clipped: true})
	o.Observe(PSAPick{Node: 1, EST: 1.0, PST: 1.5, Start: 1.5, Finish: 2.0, Procs: 2})
	o.Observe(Comm{Tag: "t", Bytes: 1024, SendStart: 0, RecvStart: 0.5, RecvEnd: 0.6})
	o.Observe(NodeRun{Node: 1, Start: 0, Finish: 0.25, Procs: 2})
	o.Observe(ProcStat{Proc: 0, Busy: 0.2, Idle: 0.05})
	o.Observe(CalibFit{Name: "mul", R2: 0.99, MaxAbsResidual: 1e-4, Samples: 7})
	for name, want := range map[string]uint64{
		"alloc_solver_stages_total": 2,
		"alloc_solver_iters_total":  17,
		"alloc_solver_evals_total":  20,
		"sched_round_nodes_total":   1,
		"sched_round_clipped_total": 1,
		"sched_picks_total":         1,
		"sim_messages_total":        1,
		"sim_network_bytes_total":   1024,
		"sim_node_runs_total":       1,
		"calib_fits_total":          1,
	} {
		if got := r.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if n := r.Histogram("sched_pick_wait_seconds", nil).Count(); n != 1 {
		t.Errorf("pick wait count = %d, want 1", n)
	}
	if MetricsObserver(nil) != nil {
		t.Error("MetricsObserver(nil) must be nil for the fast path")
	}
}
