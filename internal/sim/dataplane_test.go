package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"paradigm/internal/codegen"
	"paradigm/internal/fault"
	"paradigm/internal/machine"
	"paradigm/internal/matrix"
	"paradigm/internal/obs"
	"paradigm/internal/par"
	"paradigm/internal/prog"
	"paradigm/internal/programs"
	"paradigm/internal/trainsets"
)

// outcome is everything a caller can see of one simulated run: the
// error, the Result's exported fields (the halted run's Partial when
// there is an error), the observer's event stream in order, and the bits
// of every array the run can still produce.
type outcome struct {
	err    string
	result Result
	events []obs.Event
	arrays map[string][]uint64
}

// observe runs the streams at the given worker-pool width and records
// the outcome. Arrays come from Gather on a completed run and from
// SalvageArray on a halted one (absent when salvage refuses).
func observe(t *testing.T, width string, p *prog.Program, streams *codegen.Streams, mp machine.Params, plan *fault.Plan) outcome {
	t.Helper()
	t.Setenv(par.EnvWorkers, width)
	rec := obs.NewRecorder()
	res, err := RunCtx(context.Background(), p, streams, mp, Options{Observer: rec, Faults: plan})
	out := outcome{events: rec.Events(), arrays: map[string][]uint64{}}
	var halt *HaltError
	switch {
	case errors.As(err, &halt):
		out.err = err.Error()
		res = halt.Partial
	case err != nil:
		t.Fatalf("width %s: %v", width, err)
	}
	for name := range p.Arrays {
		var m *matrix.Matrix
		if halt != nil {
			var ok bool
			if m, ok = res.SalvageArray(name); !ok {
				continue
			}
		} else if m, err = res.Gather(name); err != nil {
			t.Fatalf("width %s: %v", width, err)
		}
		bits := make([]uint64, len(m.Data))
		for i, v := range m.Data {
			bits[i] = math.Float64bits(v)
		}
		out.arrays[name] = bits
	}
	out.result = *res
	out.result.stores, out.result.p = nil, nil
	return out
}

// requireSameOutcome fails unless two runs are indistinguishable:
// virtual clocks, node windows, traffic counts, the event stream and
// every output bit.
func requireSameOutcome(t *testing.T, a, b outcome) {
	t.Helper()
	if a.err != b.err {
		t.Fatalf("errors differ:\n%s\n%s", a.err, b.err)
	}
	if !reflect.DeepEqual(a.result, b.result) {
		t.Fatalf("results differ:\n%+v\n%+v", a.result, b.result)
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("%d events vs %d", len(a.events), len(b.events))
	}
	for i := range a.events {
		if !reflect.DeepEqual(a.events[i], b.events[i]) {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.events[i], b.events[i])
		}
	}
	if !reflect.DeepEqual(a.arrays, b.arrays) {
		t.Fatal("output arrays differ in some bit")
	}
}

// requireReferenceBits fails unless every array the run produced equals
// the sequential reference bit for bit.
func requireReferenceBits(t *testing.T, p *prog.Program, o outcome) {
	t.Helper()
	ref, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	for name, bits := range o.arrays {
		for i, v := range ref[name].Data {
			if bits[i] != math.Float64bits(v) {
				t.Fatalf("array %q element %d = %#x, reference %#x", name, i, bits[i], math.Float64bits(v))
			}
		}
	}
}

// fannedOutMul is the size of a square multiply whose group barrier — and
// whose operands' init barriers — are computed on the worker pool; the
// last two lines do not compile if fanOutWork outgrows either.
const (
	fannedOutMul = 128
	_            = uint(fannedOutMul*fannedOutMul*fannedOutMul - fanOutWork)
	_            = uint(fannedOutMul*fannedOutMul*initElemWork - fanOutWork)
)

// calibration is the trained CM-5 the paper's programs are built with.
func calibration(t *testing.T) *trainsets.Calibration {
	t.Helper()
	cal, err := trainsets.Calibrate(machine.CM5(64))
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// cmm builds the paper's Complex Matrix Multiply of size n.
func cmm(t *testing.T, n int) *prog.Program {
	t.Helper()
	p, err := programs.ComplexMatMul(n, calibration(t))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSimDataPlaneWidthIndependent: the group-parallel kernels must be
// invisible. The paper's two programs at production scale and a grid
// program run at pool widths 1 (every slot inline, in slot order) and 8
// and must agree in everything observable. CMM-256's four init and four
// multiply barriers and the grid program's two and one are at or above
// fanOutWork, so width 8 really computes them on the pool; CMM-256's
// add and subtract and the whole of Strassen-128 (64×64 blocks) are below
// it and pin the inline path under a wide pool.
func TestSimDataPlaneWidthIndependent(t *testing.T) {
	strassen, err := programs.Strassen(128, calibration(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		p         *prog.Program
		procs     int
		fannedOut int
	}{
		{"cmm256-p64", cmm(t, 256), 64, 8},
		{"strassen128-p64", strassen, 64, 0},
		{"gridmul128-p8", gridMulProgram(t, fannedOutMul), 8, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, streams := pipeline(t, tc.p, tc.procs)
			mp := machine.CM5(tc.procs)
			one := observe(t, "1", tc.p, streams, mp, nil)
			eight := observe(t, "8", tc.p, streams, mp, nil)
			requireSameOutcome(t, one, eight)
			if len(one.arrays) != len(tc.p.Arrays) {
				t.Fatalf("gathered %d of %d arrays", len(one.arrays), len(tc.p.Arrays))
			}
			requireReferenceBits(t, tc.p, one)
			if eight.result.fannedOut != tc.fannedOut {
				t.Fatalf("%d barriers fanned out, want %d", eight.result.fannedOut, tc.fannedOut)
			}
		})
	}
}

// TestServiceSizedRunStaysInline is the promise in fanOutWork's comment:
// the largest job paradigmd's typical traffic holds (CMM-127, on 35
// processors) computes every barrier on the goroutine that runs it, also
// under a wide pool — and one size up it no longer does, so the count is
// not vacuous.
func TestServiceSizedRunStaysInline(t *testing.T) {
	t.Setenv(par.EnvWorkers, "8")
	for _, tc := range []struct {
		n      int
		inline bool
	}{{127, true}, {128, false}} {
		p := cmm(t, tc.n)
		_, streams := pipeline(t, p, 35)
		res, err := Run(p, streams, machine.CM5(35))
		if err != nil {
			t.Fatal(err)
		}
		if (res.fannedOut == 0) != tc.inline {
			t.Fatalf("CMM-%d on 35 processors: %d barriers fanned out", tc.n, res.fannedOut)
		}
	}
}

// TestSimDataPlaneFaultPaths: zero-copy messages and parallel kernels
// under every fault kind. A 128×128 multiply on 8 processors and CMM-256
// on 64 (init and multiply barriers at or above fanOutWork) run at widths
// 1 and 8 under a dropped, a duplicated and a delayed message and under
// the death of a processor — each of the 8, four of the 64 — at several
// moments; both widths must report the same halt, the same partial state
// and the same salvaged bits, and whatever is salvaged or gathered must
// equal the sequential reference bit for bit.
func TestSimDataPlaneFaultPaths(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      *prog.Program
		procs  int
		deaths []int
	}{
		{"mul128-p8", mulProgram(t, fannedOutMul), 8, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"cmm256-p64", cmm(t, 256), 64, []int{0, 21, 42, 63}},
	} {
		t.Run(tc.name, func(t *testing.T) { faultPaths(t, tc.p, tc.procs, tc.deaths) })
	}
}

func faultPaths(t *testing.T, p *prog.Program, procs int, deaths []int) {
	_, streams := pipeline(t, p, procs)
	mp := machine.CM5(procs)
	clean := observe(t, "1", p, streams, mp, nil)
	requireReferenceBits(t, p, clean)
	if clean.result.fannedOut == 0 {
		t.Fatal("no barrier of the clean run reaches fanOutWork")
	}

	plans := map[string]*fault.Plan{
		"drop": {MsgFaults: []fault.MsgFault{{Kind: fault.Drop, Seq: 3}}},
		"duplicate+delay": {MsgFaults: []fault.MsgFault{
			{Kind: fault.Duplicate, Seq: 1},
			{Kind: fault.Delay, Seq: 2, Extra: 5e-3},
		}},
	}
	for _, pr := range deaths {
		for _, frac := range []float64{0.25, 0.5, 0.75} {
			name := "fail-P" + itoa(pr) + "@" + itoa(int(frac*100)) + "%"
			plans[name] = &fault.Plan{ProcFails: []fault.ProcFail{{Proc: pr, At: clean.result.Makespan * frac}}}
		}
	}
	// Deaths in the middle of a send phase: a processor that dies as its
	// second send completes leaves the first in the network, already
	// ready, for a receiver the scheduler sweep has not reached yet.
	sendEnds := map[int][]float64{}
	for _, e := range clean.events {
		if c, ok := e.(obs.Comm); ok {
			sendEnds[c.From] = append(sendEnds[c.From], c.SendEnd)
		}
	}
	for _, pr := range deaths {
		if ends := sendEnds[pr]; len(ends) >= 2 {
			sort.Float64s(ends)
			plans["fail-P"+itoa(pr)+"@second-send"] = &fault.Plan{ProcFails: []fault.ProcFail{{Proc: pr, At: ends[1]}}}
		}
	}
	names := make([]string, 0, len(plans))
	for name := range plans {
		names = append(names, name)
	}
	sort.Strings(names)

	// A message received after its sender died is a view into a dead
	// processor's store: the sweep must contain that case.
	viewsOutlivedSender := false
	for _, name := range names {
		plan := plans[name]
		one := observe(t, "1", p, streams, mp, plan)
		eight := observe(t, "8", p, streams, mp, plan)
		requireSameOutcome(t, one, eight)
		requireReferenceBits(t, p, one)
		if name == "drop" && !strings.Contains(one.err, "message lost") {
			t.Fatalf("drop: err = %q, want a message-loss halt", one.err)
		}
		if name == "duplicate+delay" && (one.err != "" || len(one.arrays) != len(p.Arrays)) {
			t.Fatalf("duplicate+delay: err = %q, %d arrays", one.err, len(one.arrays))
		}
		died := -1
		for _, e := range one.events {
			switch e := e.(type) {
			case obs.Fault:
				if e.FaultKind == "proc-fail" {
					died = e.Proc
				}
			case obs.Comm:
				if e.From == died {
					viewsOutlivedSender = true
				}
			}
		}
	}
	if !viewsOutlivedSender {
		t.Fatal("no run received a message after its sender's death")
	}
}

// TestInsertIntoSealedBlockFails: once a Send or Move has taken a view
// of a block, writing into it is an error — the invariant that lets a
// message carry a view instead of a copy.
func TestInsertIntoSealedBlockFails(t *testing.T) {
	rect := codegen.Rect{R0: 2, R1: 4, C0: 0, C1: 3}
	src, dst := newBlock(rect), newBlock(rect)
	if err := copyRect(dst, rect, src); err != nil {
		t.Fatalf("insert into an unviewed block: %v", err)
	}
	if err := view(dst, rect); err != nil {
		t.Fatal(err)
	}
	if err := copyRect(dst, rect, src); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("insert into a viewed block: err = %v, want sealed-block error", err)
	}

	// Through the interpreter: a Move back into the instance the
	// preceding Send took its view of.
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	patched := false
	for pr, stream := range streams.PerProc {
		for i, in := range stream {
			s, ok := in.(codegen.Send)
			if !ok {
				continue
			}
			move := codegen.Move{Payload: s.Payload, SrcInstance: s.SrcInstance, DstInstance: s.SrcInstance, Block: s.Payload}
			stream = append(stream[:i+1:i+1], append([]codegen.Instr{move}, stream[i+1:]...)...)
			streams.PerProc[pr] = stream
			patched = true
			break
		}
		if patched {
			break
		}
	}
	if !patched {
		t.Fatal("no send to patch")
	}
	if _, err := Run(p, streams, machine.CM5(8)); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("err = %v, want sealed-block error", err)
	}
}
