package oracle

import (
	"context"
	"strings"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/codegen"
	"paradigm/internal/costmodel"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/mdg"
	"paradigm/internal/obs"
	"paradigm/internal/prog"
	"paradigm/internal/sched"
	"paradigm/internal/sim"
)

// cm5Fit is the paper's Table 2 CM-5 messaging fit — the model every
// oracle suite checks against.
var cm5Fit = costmodel.Model{Transfer: costmodel.TransferParams{
	Tss: 777.56e-6, Tps: 486.98e-9, Tsr: 465.58e-6, Tpr: 426.25e-9, Tn: 0,
}}

// wantErr asserts err is non-nil and mentions frag.
func wantErr(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("checker accepted corrupted input, want error mentioning %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("err = %v, want mention of %q", err, frag)
	}
}

// --- CheckAllocation -------------------------------------------------------

func TestCheckAllocationAcceptsSolve(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := RandomGraph(seed, GenOptions{})
		r, err := alloc.Solve(g, cm5Fit, 8, alloc.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckAllocation(g, cm5Fit, 8, r, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCheckAllocationAcceptsGridKinds(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g := RandomGraph(seed, GenOptions{GridKinds: true})
		r, err := alloc.Solve(g, cm5Fit, 8, alloc.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckAllocation(g, cm5Fit, 8, r, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCheckAllocationCatchesCorruption(t *testing.T) {
	g := RandomGraph(7, GenOptions{})
	r, err := alloc.Solve(g, cm5Fit, 8, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}

	phiOff := r
	phiOff.Phi *= 1.001
	wantErr(t, CheckAllocation(g, cm5Fit, 8, phiOff, Options{}), "Φ")

	apOff := r
	apOff.Ap *= 0.999
	wantErr(t, CheckAllocation(g, cm5Fit, 8, apOff, Options{}), "A_p")

	outOfBox := r
	outOfBox.P = append([]float64(nil), r.P...)
	outOfBox.P[0] = 9.5 // > procs
	wantErr(t, CheckAllocation(g, cm5Fit, 8, outOfBox, Options{}), "outside")

	short := r
	short.P = r.P[:len(r.P)-1]
	wantErr(t, CheckAllocation(g, cm5Fit, 8, short, Options{}), "entries")
}

func TestCheckAllocationRejectsCyclicGraph(t *testing.T) {
	var g mdg.Graph
	a := g.AddNode(mdg.Node{Name: "a", Tau: 1})
	b := g.AddNode(mdg.Node{Name: "b", Tau: 1})
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	r := alloc.Result{P: []float64{1, 1}}
	wantErr(t, CheckAllocation(&g, cm5Fit, 4, r, Options{}), "invalid graph")
}

// --- CheckSchedule ---------------------------------------------------------

// scheduleFor builds a START/STOP-augmented graph from a seed and runs the
// full PSA pipeline on it.
func scheduleFor(t *testing.T, seed uint64, procs int) (*mdg.Graph, *sched.Schedule) {
	t.Helper()
	g := RandomGraph(seed, GenOptions{})
	if _, _, err := g.EnsureStartStop(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	r, err := alloc.Solve(g, cm5Fit, procs, alloc.Options{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	s, err := sched.Run(g, cm5Fit, r.P, procs, sched.Options{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return g, s
}

func TestCheckScheduleAcceptsPSA(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g, s := scheduleFor(t, seed, 8)
		if err := CheckSchedule(g, cm5Fit, s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCheckScheduleAcceptsSPMD(t *testing.T) {
	g := RandomGraph(3, GenOptions{})
	if _, _, err := g.EnsureStartStop(); err != nil {
		t.Fatal(err)
	}
	s, err := sched.SPMD(g, cm5Fit, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSchedule(g, cm5Fit, s); err != nil {
		t.Fatal(err)
	}
}

func TestCheckScheduleCatchesCorruption(t *testing.T) {
	g, s := scheduleFor(t, 5, 8)
	if err := CheckSchedule(g, cm5Fit, s); err != nil {
		t.Fatal(err)
	}
	// Pick a real (positive-duration) node to corrupt.
	victim := -1
	for i, e := range s.Entries {
		if e.Finish > e.Start {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no positive-duration node")
	}

	mutate := func(f func(c *sched.Schedule)) *sched.Schedule {
		c := *s
		c.Entries = append([]sched.Entry(nil), s.Entries...)
		c.Alloc = append([]int(nil), s.Alloc...)
		for i := range c.Entries {
			c.Entries[i].Procs = append([]int(nil), s.Entries[i].Procs...)
		}
		f(&c)
		return &c
	}

	wantErr(t, CheckSchedule(g, cm5Fit, mutate(func(c *sched.Schedule) {
		c.Entries[victim].Finish *= 1.01 // duration no longer the weight
	})), "duration")
	wantErr(t, CheckSchedule(g, cm5Fit, mutate(func(c *sched.Schedule) {
		c.Makespan *= 1.01
	})), "makespan")
	wantErr(t, CheckSchedule(g, cm5Fit, mutate(func(c *sched.Schedule) {
		c.Entries[victim].Procs[0] = c.Entries[victim].Procs[len(c.Entries[victim].Procs)-1]
		if len(c.Entries[victim].Procs) == 1 {
			c.Entries[victim].Procs[0] = -1
		}
	})), "processor")
	wantErr(t, CheckSchedule(g, cm5Fit, mutate(func(c *sched.Schedule) {
		c.Alloc[victim]++ // allocation no longer matches the proc set
	})), "")
	wantErr(t, CheckSchedule(g, cm5Fit, nil), "nil")
}

func TestCheckScheduleCatchesOverlap(t *testing.T) {
	// Hand-built two-node chain scheduled onto the same processor with
	// overlapping windows.
	var g mdg.Graph
	a := g.AddNode(mdg.Node{Name: "a", Alpha: 1, Tau: 1})
	b := g.AddNode(mdg.Node{Name: "b", Alpha: 1, Tau: 1})
	g.AddEdge(a, b)
	s := &sched.Schedule{
		ProcsTotal: 1,
		Alloc:      []int{1, 1},
		Entries: []sched.Entry{
			{Node: 0, Start: 0, Finish: 1, Procs: []int{0}},
			{Node: 1, Start: 0.5, Finish: 1.5, Procs: []int{0}},
		},
		Makespan: 1.5,
	}
	wantErr(t, CheckSchedule(&g, costmodel.Model{}, s), "")
}

// --- CheckRun --------------------------------------------------------------

// mulProgram builds C = A·B with A ByRow and B ByCol, forcing a 2D
// redistribution through the simulated network.
func mulProgram(t testing.TB, n int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("mul")
	b.AddNode("initA", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpInit, M: n, N: n,
			Init: kernels.Elementwise(func(i, j int) float64 { return float64(i*3+j) / 7 })},
		Output: "A", Axis: dist.ByRow,
	}, costmodel.LoopParams{Alpha: 0.05, Tau: 0.002})
	b.AddNode("initB", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpInit, M: n, N: n,
			Init: kernels.Elementwise(func(i, j int) float64 { return float64(i-2*j) / 5 })},
		Output: "B", Axis: dist.ByCol,
	}, costmodel.LoopParams{Alpha: 0.05, Tau: 0.002})
	b.AddNode("mul", prog.NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpMul, M: n, N: n, K: n},
		Inputs: []string{"A", "B"}, Output: "C", Axis: dist.ByRow,
	}, costmodel.LoopParams{Alpha: 0.12, Tau: 0.3})
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tracedRun executes a program end to end with the oracle Trace attached.
func tracedRun(t *testing.T, p *prog.Program, procs int) (*Trace, *sim.Result) {
	t.Helper()
	ar, err := alloc.Solve(p.G, cm5Fit, procs, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(p.G, cm5Fit, ar.P, procs, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := codegen.Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{}
	res, err := sim.RunCtx(context.Background(), p, streams, machine.CM5(procs), sim.Options{Observer: tr})
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

func TestCheckRunAcceptsSimulation(t *testing.T) {
	tr, res := tracedRun(t, mulProgram(t, 16), 8)
	if err := CheckRun(mulProgram(t, 16).G, tr, res); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRunCatchesCorruption(t *testing.T) {
	p := mulProgram(t, 16)
	tr, res := tracedRun(t, p, 8)

	lost := *res
	lost.Messages++
	wantErr(t, CheckRun(p.G, tr, &lost), "messages")

	bytesOff := *res
	bytesOff.NetworkBytes += 8
	wantErr(t, CheckRun(p.G, tr, &bytesOff), "bytes")

	clockOff := *res
	clockOff.Makespan *= 1.01
	wantErr(t, CheckRun(p.G, tr, &clockOff), "makespan")

	windowOff := *res
	windowOff.NodeStart = append([]float64(nil), res.NodeStart...)
	for i, d := range res.NodeDone {
		if d {
			windowOff.NodeStart[i] += 1e-3
			break
		}
	}
	wantErr(t, CheckRun(p.G, tr, &windowOff), "window")

	if len(tr.Comms) > 0 {
		// A message received twice (duplication) breaks conservation.
		dup := &Trace{Comms: append(append([]obs.Comm(nil), tr.Comms...), tr.Comms[0]), Runs: tr.Runs}
		wantErr(t, CheckRun(p.G, dup, res), "")
		// An acausal receive (ready before send completed) breaks causality.
		warp := &Trace{Comms: append([]obs.Comm(nil), tr.Comms...), Runs: tr.Runs}
		warp.Comms[0].NetReady = warp.Comms[0].SendEnd - 1e-3
		warp.Comms[0].RecvStart = warp.Comms[0].NetReady
		wantErr(t, CheckRun(p.G, warp, res), "")
	}

	wantErr(t, CheckRun(p.G, nil, res), "nil")
}
