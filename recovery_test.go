// Chaos harness for fault injection and failure-aware rescheduling: the
// pipeline runs under seeded fault schedules and every recovered result
// must match the sequential reference bit for bit — salvage restores
// blocks exactly and re-run nodes repeat the same FP summation orders,
// so tolerance is zero throughout.
package paradigm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"paradigm/internal/codegen"
	"paradigm/internal/matrix"
	"paradigm/internal/obs"
	"paradigm/internal/par"
	"paradigm/internal/sim"
)

// mustVerifyExact gathers every array and requires a zero worst-case
// deviation from the sequential reference.
func mustVerifyExact(t *testing.T, p *Program, res *Result) {
	t.Helper()
	worst, err := Verify(p, res.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if worst != 0 {
		t.Fatalf("recovered run deviates from reference by %v, want bit-identical", worst)
	}
}

// cleanMakespan runs the fault-free pipeline once for a fail-time hint.
func cleanMakespan(t *testing.T, p *Program, m Machine, cal *Calibration, procs int) float64 {
	t.Helper()
	res, err := RunContext(context.Background(), p, m, cal, procs)
	if err != nil {
		t.Fatal(err)
	}
	mustVerifyExact(t, p, res)
	return res.Actual
}

func TestChaosRecoveryComplexMatMul(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(8)
	hint := cleanMakespan(t, p, m, cal, 8)

	recovered := 0
	for seed := uint64(1); seed <= 6; seed++ {
		plan, err := RandomFaultPlan(seed, FaultRandOptions{
			Procs: 8, MakespanHint: hint, ProcFails: 1, MsgDelays: 2, Stragglers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunContext(context.Background(), p, m, cal, 8,
			WithFaultPlan(plan), WithRecovery(2))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mustVerifyExact(t, p, res)
		if res.Recovered {
			recovered++
			if len(res.FailedProcs) == 0 {
				t.Fatalf("seed %d: recovered run reports no failed processors", seed)
			}
			if res.RecoveryAttempts < 1 {
				t.Fatalf("seed %d: RecoveryAttempts = %d", seed, res.RecoveryAttempts)
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no seed exercised the recovery path — fail times never landed mid-run")
	}
}

func TestChaosRecoveryStrassen(t *testing.T) {
	cal := testCal(t)
	p, err := Strassen(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(8)
	hint := cleanMakespan(t, p, m, cal, 8)

	recovered := 0
	for seed := uint64(10); seed <= 15; seed++ {
		plan, err := RandomFaultPlan(seed, FaultRandOptions{
			Procs: 8, MakespanHint: hint, ProcFails: 1, MsgDelays: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunContext(context.Background(), p, m, cal, 8,
			WithFaultPlan(plan), WithRecovery(2))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mustVerifyExact(t, p, res)
		if res.Recovered {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("no seed exercised the recovery path")
	}
}

// TestEveryProcFailureRecovers is the property-style check: ANY single
// processor failure before makespan/2 on the Strassen MDG recovers with
// correct numerics.
func TestEveryProcFailureRecovers(t *testing.T) {
	cal := testCal(t)
	p, err := Strassen(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(8)
	hint := cleanMakespan(t, p, m, cal, 8)

	for pr := 0; pr < 8; pr++ {
		for _, frac := range []float64{0.1, 0.4} {
			plan := &FaultPlan{ProcFails: []ProcFail{{Proc: pr, At: hint * frac}}}
			res, err := RunContext(context.Background(), p, m, cal, 8,
				WithFaultPlan(plan), WithRecovery(2))
			if err != nil {
				t.Fatalf("proc %d at %.0f%%: %v", pr, frac*100, err)
			}
			mustVerifyExact(t, p, res)
			// A processor dead mid-run must have forced recovery; a fail
			// time past its last instruction legitimately does not.
			if res.Recovered && (len(res.FailedProcs) != 1 || res.FailedProcs[0] != pr) {
				t.Fatalf("proc %d: FailedProcs = %v", pr, res.FailedProcs)
			}
		}
	}
}

// TestTwoWaveFaultRecovers is the second-wave regression gate: a fault
// plan whose second processor death lands *after* the first halt — i.e.
// during or after the salvage→replan cycle — must re-enter recovery
// (bounded by the retry budget) instead of being silently dropped or
// surfacing as a raw halt. The recovered result must still be
// bit-identical to the sequential reference, and a budget of one must
// surface the second wave as the classified halt it is.
func TestTwoWaveFaultRecovers(t *testing.T) {
	cal := testCal(t)
	p, err := Strassen(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(8)
	hint := cleanMakespan(t, p, m, cal, 8)

	var confirmed *FaultPlan
	for _, frac2 := range []float64{0.35, 0.5, 0.7, 0.9} {
		plan := &FaultPlan{ProcFails: []ProcFail{
			{Proc: 2, At: hint * 0.2},
			{Proc: 5, At: hint * frac2},
		}}
		res, err := RunContext(context.Background(), p, m, cal, 8,
			WithFaultPlan(plan), WithRecovery(3))
		if err != nil {
			t.Fatalf("second wave at %.0f%%: %v", frac2*100, err)
		}
		mustVerifyExact(t, p, res)
		if res.RecoveryAttempts >= 2 {
			confirmed = plan
			if !res.Recovered {
				t.Fatalf("two-wave run with %d attempts not marked recovered", res.RecoveryAttempts)
			}
		}
	}
	if confirmed == nil {
		t.Fatal("no second-wave timing re-entered recovery — the residual plan never reached the re-run")
	}

	// The same confirmed two-wave plan under a budget of one must surface
	// the second wave's halt instead of exceeding the budget silently.
	_, err = RunContext(context.Background(), p, m, cal, 8,
		WithFaultPlan(confirmed), WithRecovery(1))
	if err == nil {
		t.Fatal("budget 1 absorbed a two-wave plan that needs two recoveries")
	}
	if !errors.Is(err, ErrProcessorLost) {
		t.Fatalf("budget-exhausted error = %v, want ErrProcessorLost", err)
	}
}

// TestMessageLossRecovers drops early messages by sequence number: the
// watchdog classifies the halt as message loss (no processor died) and
// recovery replans on the full system size.
func TestMessageLossRecovers(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(8)
	for seq := 0; seq < 3; seq++ {
		plan := &FaultPlan{MsgFaults: []MsgFault{{Kind: FaultDrop, Seq: seq}}}
		res, err := RunContext(context.Background(), p, m, cal, 8,
			WithFaultPlan(plan), WithRecovery(2))
		if err != nil {
			t.Fatalf("drop seq %d: %v", seq, err)
		}
		mustVerifyExact(t, p, res)
		if !res.Recovered {
			t.Fatalf("drop seq %d: run did not recover (message never blocked a receive?)", seq)
		}
		if len(res.FailedProcs) != 0 {
			t.Fatalf("drop seq %d: message loss reported failed procs %v", seq, res.FailedProcs)
		}
	}
}

// TestRecoveryWithoutOptionSurfacesHalt: a fault plan without
// WithRecovery must surface the classified halt unchanged.
func TestRecoveryWithoutOptionSurfacesHalt(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{ProcFails: []ProcFail{{Proc: 0, At: 0}}}
	_, err = RunContext(context.Background(), p, NewCM5(8), cal, 8, WithFaultPlan(plan))
	if err == nil {
		t.Fatal("want halt without recovery enabled")
	}
	if !errors.Is(err, ErrProcessorLost) {
		t.Fatalf("err = %v, want ErrProcessorLost", err)
	}
	var halt *HaltError
	if !errors.As(err, &halt) {
		t.Fatalf("err = %T, want *HaltError", err)
	}
}

// TestFaultFreeByteIdentical: attaching an empty fault plan and recovery
// must leave the fault-free pipeline byte-identical — same makespan,
// same message count, same data.
func TestFaultFreeByteIdentical(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(8)
	plain, err := RunContext(context.Background(), p, m, cal, 8)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := RunContext(context.Background(), p, m, cal, 8,
		WithFaultPlan(&FaultPlan{}), WithRecovery(3))
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Recovered {
		t.Fatal("fault-free run claims recovery")
	}
	if plain.Actual != faulted.Actual || plain.Sim.Messages != faulted.Sim.Messages {
		t.Fatalf("empty plan changed the run: %v/%d vs %v/%d",
			plain.Actual, plain.Sim.Messages, faulted.Actual, faulted.Sim.Messages)
	}
	for name := range p.Arrays {
		a, err := plain.Sim.Gather(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := faulted.Sim.Gather(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := matrix.MaxAbsDiff(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Fatalf("array %q differs between plain and empty-plan runs", name)
		}
	}
}

// TestRecoveryEventsEmitted: a recovering run emits Fault, Recovery and
// Replan events through the call-level observer, and the metrics fold
// counts them.
func TestRecoveryEventsEmitted(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(8)
	hint := cleanMakespan(t, p, m, cal, 8)
	rec := NewEventRecorder()
	reg := NewMetrics()
	plan := &FaultPlan{ProcFails: []ProcFail{{Proc: 1, At: hint / 4}}}
	res, err := RunContext(context.Background(), p, m, cal, 8,
		WithFaultPlan(plan), WithRecovery(2),
		WithObserver(MultiObserver(rec, NewMetricsObserver(reg))))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Skip("processor 1 finished before the fail time on this schedule")
	}
	kinds := map[string]int{}
	for _, e := range rec.Events() {
		kinds[fmt.Sprintf("%T", e)]++
	}
	for _, want := range []obs.Event{obs.Fault{}, obs.Recovery{}, obs.Replan{}} {
		if name := fmt.Sprintf("%T", want); kinds[name] == 0 {
			t.Fatalf("no %s events recorded (got %v)", name, kinds)
		}
	}
	text := reg.Snapshot().Text()
	for _, metric := range []string{"fault_injected", "recovery_attempts_total", "replan_total"} {
		if !strings.Contains(text, metric) {
			t.Fatalf("metrics snapshot missing %q:\n%s", metric, text)
		}
	}
}

// dataDigest hashes every output array of a simulated run: float64
// bits, row-major, arrays in sorted name order. Where Result.Digest
// identifies a whole run, allocation and recovery trail included,
// dataDigest covers the data only. Recovery is bit-exact and the
// simulated numerics are procs-invariant, so the digest is a pure
// function of the program — the same across partition sizes, fault
// plans and recovery paths — which makes a fault-free run's digest the
// oracle for a recovered one.
func dataDigest(p *Program, res *SimResult) (string, error) {
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var buf [8]byte
	for _, name := range names {
		mat, err := res.Gather(name)
		if err != nil {
			return "", err
		}
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(buf[:], uint64(len(mat.Data)))
		h.Write(buf[:])
		for _, v := range mat.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestRecoveryPricesSurvivorsAtTheirOwnSpeeds: on a heterogeneous
// machine the re-run's processor k is the k-th survivor, with that
// processor's own speed — the numbering the residual fault plan uses —
// not the first survivors-many entries of the speed table. cm5-hetero8
// runs at [2 2 1 1 1 1 0.5 0.5]; with P0 dead the survivors run at
// [2 1 1 1 1 0.5 0.5], and the recovered run must be the residual
// schedule simulated on exactly that hand-built machine.
func TestRecoveryPricesSurvivorsAtTheirOwnSpeeds(t *testing.T) {
	b, err := ResolveMachine("cm5-hetero8")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Strassen(64, b)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	clean, err := RunOnContext(ctx, p, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{ProcFails: []ProcFail{{Proc: 0, At: clean.Actual / 5}}}
	res, err := RunOnContext(ctx, p, b, 8, WithFaultPlan(plan), WithRecovery(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered || len(res.FailedProcs) != 1 || res.FailedProcs[0] != 0 {
		t.Fatalf("recovered = %v, failed = %v; want a recovery from the loss of P0", res.Recovered, res.FailedProcs)
	}
	mustVerifyExact(t, p, res)

	rerun := func(m Machine) *SimResult {
		t.Helper()
		streams, err := codegen.Generate(res.Program, res.Sched)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := sim.Run(res.Program, streams, m)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	survivors := b.SimParams().WithProcs(7)
	survivors.Speeds = []float64{2, 1, 1, 1, 1, 0.5, 0.5}
	want := rerun(survivors)
	if res.Actual != want.Makespan || res.Sim.Messages != want.Messages {
		t.Fatalf("recovered run: makespan %v, %d messages; on the survivors' own speeds %v, %d",
			res.Actual, res.Sim.Messages, want.Makespan, want.Messages)
	}
	if truncated := rerun(b.SimParams().WithProcs(7)); truncated.Makespan == want.Makespan {
		t.Fatal("the speed table's first seven entries price this schedule like the survivors': the test cannot tell them apart")
	}
}

// TestRecoveryWidthIndependent: the simulator computes a group's blocks
// on the worker pool once a barrier is big enough (CMM-128 is; the
// programs above are not), so the halted run, the salvage and the
// recovery run must not depend on the pool's width. A processor death
// and a dropped message each recover at widths 1 and 8 to the same
// result digest and to the fault-free run's data digest.
func TestRecoveryWidthIndependent(t *testing.T) {
	cal := testCal(t)
	p, err := ComplexMatMul(128, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(16)
	clean, err := RunContext(context.Background(), p, m, cal, 16)
	if err != nil {
		t.Fatal(err)
	}
	cleanData, err := dataDigest(p, clean.Sim)
	if err != nil {
		t.Fatal(err)
	}
	for name, plan := range map[string]*FaultPlan{
		"proc-fail": {ProcFails: []ProcFail{{Proc: 3, At: clean.Actual / 3}}},
		"msg-drop":  {MsgFaults: []MsgFault{{Kind: FaultDrop, Seq: 5}, {Kind: FaultDuplicate, Seq: 2}}},
	} {
		var digests []string
		for _, width := range []string{"1", "8"} {
			t.Setenv(par.EnvWorkers, width)
			res, err := RunContext(context.Background(), p, m, cal, 16, WithFaultPlan(plan), WithRecovery(2))
			if err != nil {
				t.Fatalf("%s width %s: %v", name, width, err)
			}
			if !res.Recovered {
				t.Fatalf("%s width %s: the plan did not trigger recovery", name, width)
			}
			data, err := dataDigest(p, res.Sim)
			if err != nil {
				t.Fatal(err)
			}
			if data != cleanData {
				t.Fatalf("%s width %s: recovered data digest %s, fault-free %s", name, width, data, cleanData)
			}
			digests = append(digests, res.Digest())
		}
		if digests[0] != digests[1] {
			t.Fatalf("%s: result digest %s at width 1, %s at width 8", name, digests[0], digests[1])
		}
	}
}

// TestDataDigestPartitionInvariant: the data digest is the oracle for a
// recovered run only if it does not depend on the partition, since a
// recovery re-runs on fewer processors than the fault-free reference.
// CMM-16 and Strassen-16 at 4 and 8 processors schedule differently and
// must gather the same arrays bit for bit.
func TestDataDigestPartitionInvariant(t *testing.T) {
	cal := testCal(t)
	cmm, err := ComplexMatMul(16, cal)
	if err != nil {
		t.Fatal(err)
	}
	str, err := Strassen(16, cal)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Program{"cmm": cmm, "strassen": str} {
		var digests []string
		for _, procs := range []int{4, 8} {
			res, err := RunContext(context.Background(), p, NewCM5(procs), cal, procs)
			if err != nil {
				t.Fatal(err)
			}
			mustVerifyExact(t, p, res)
			d, err := dataDigest(p, res.Sim)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, d)
		}
		if digests[0] != digests[1] {
			t.Fatalf("%s: data digest %s at 4 processors, %s at 8", name, digests[0], digests[1])
		}
	}
}

// TestRecoveredResultRendersAgainstItsProgram: after recovery the
// schedule indexes the residual program's graph — renumbered in
// topological order, with restore nodes — not the submitted one. The
// plan is the one `paradigm -program strassen -size 32 -procs 8
// -faults rand:42 -recover 2` runs; rendering its table against the
// submitted graph indexed past the end. Result.Program is the graph to
// render against, and every table row names its node in that graph.
func TestRecoveredResultRendersAgainstItsProgram(t *testing.T) {
	cal := testCal(t)
	p, err := StrassenRecursive(64, 1, cal)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCM5(8)
	ctx := context.Background()
	clean, err := RunContext(ctx, p, m, cal, 8)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Program != p {
		t.Fatal("a fault-free run's Program is not the submitted program")
	}
	plan, err := RandomFaultPlan(42, FaultRandOptions{
		Procs: 8, MakespanHint: clean.Actual, ProcFails: 1, MsgDelays: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(ctx, p, m, cal, 8, WithFaultPlan(plan), WithRecovery(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatal("the plan no longer halts the run; pick a seed that does")
	}
	mustVerifyExact(t, p, res)
	g := res.Program.G
	if res.Program == p || len(g.Nodes) == len(p.G.Nodes) {
		t.Fatalf("recovered run's Program is the submitted one (%d nodes)", len(g.Nodes))
	}
	table := res.Sched.Table(g)
	_ = res.Sched.Gantt(g, 80)
	rows, restores := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(table), "\n")[1:] {
		f := strings.Fields(line)
		id, err := strconv.Atoi(f[0])
		if err != nil {
			t.Fatalf("table row %q: %v", line, err)
		}
		if f[1] != g.Nodes[id].Name {
			t.Errorf("row %d names %q, residual graph has %q", id, f[1], g.Nodes[id].Name)
		}
		if strings.HasPrefix(f[1], "restore_") {
			restores++
		}
		rows++
	}
	if rows != len(g.Nodes) || restores == 0 {
		t.Errorf("table has %d rows (%d restores) for a %d-node residual graph", rows, restores, len(g.Nodes))
	}
}
