package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"paradigm/internal/codegen"
	"paradigm/internal/fault"
	"paradigm/internal/machine"
	"paradigm/internal/matrix"
	"paradigm/internal/mdg"
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
	src, owner := newBlock(rect), newBlock(rect)
	if err := view(src, rect); err != nil {
		t.Fatal(err)
	}
	const ownerInst, consumerInst = 0, 1
	store := []*block{ownerInst: owner, consumerInst: nil}
	if err := receive(store, consumerInst, rect, rect, src); err != nil {
		t.Fatalf("receive into a consumer block: %v", err)
	}
	if err := receive(store, ownerInst, rect, rect, src); !errors.Is(err, errIntoOwner) || strings.Contains(err.Error(), "sealed") {
		t.Fatalf("receive into an unviewed producer block: err = %v, want %v", err, errIntoOwner)
	}
	if err := view(owner, rect); err != nil {
		t.Fatal(err)
	}
	if err := receive(store, ownerInst, rect, rect, src); !errors.Is(err, errIntoOwner) || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("receive into a viewed block: err = %v, want sealed-block error", err)
	}
	if err := view(store[consumerInst], rect); !errors.Is(err, errFromViews) {
		t.Fatalf("view of a consumer block: err = %v, want %v", err, errFromViews)
	}

	// Through the interpreter: a Move back into the instance the
	// preceding Send took its view of.
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	patched := false
	for pr, stream := range streams.PerProc {
		for i, in := range stream {
			if in.Op != codegen.Send {
				continue
			}
			move := codegen.Instr{Op: codegen.Move, Payload: in.Payload, Src: in.Src, Dst: in.Src, Block: in.Payload}
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
	if _, err := Run(p, streams, machine.CM5(8)); !errors.Is(err, errIntoOwner) || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("err = %v, want sealed-block error", err)
	}
}

// insert puts in ahead of the first instruction of proc pr's stream that
// before accepts, or at the end when before is nil.
func insert(t *testing.T, streams *codegen.Streams, pr int, before func(codegen.Instr) bool, in codegen.Instr) {
	t.Helper()
	stream := streams.PerProc[pr]
	at := len(stream)
	if before != nil {
		for at = 0; at < len(stream) && !before(stream[at]); at++ {
		}
		if at == len(stream) {
			t.Fatalf("proc %d: nothing to insert before", pr)
		}
	}
	streams.PerProc[pr] = append(stream[:at:at], append([]codegen.Instr{in}, stream[at:]...)...)
}

// execOf accepts node's Exec.
func execOf(node mdg.NodeID) func(codegen.Instr) bool {
	return func(in codegen.Instr) bool { return in.Op == codegen.Exec && in.Node == node }
}

// mulInstances is mulProgram on 8 processors and the instance ids of A's
// producer instance, B's instance at the multiply (a consumer, filled
// from column strips into row strips) and C's producer instance.
func mulInstances(t *testing.T) (p *prog.Program, streams *codegen.Streams, a, b, c int32) {
	t.Helper()
	p = mulProgram(t, 16)
	_, streams = pipeline(t, p, 8)
	initA, _ := p.Producer("A")
	mul, _ := p.Producer("C")
	return p, streams, int32(initA), streams.Operands[mul][1], int32(mul)
}

// requireProduct runs mulProgram's streams and requires C to be a·b bit
// for bit.
func requireProduct(t *testing.T, p *prog.Program, streams *codegen.Streams, a, b *matrix.Matrix) {
	t.Helper()
	res, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Gather("C")
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.New(a.Rows, b.Cols)
	if err := matrix.Mul(want, a, b); err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("C element %d = %#x, want %#x", i, math.Float64bits(got.Data[i]), math.Float64bits(v))
		}
	}
}

// TestReceiveHoleReadsPositiveZero: an element of a consumer block that
// no receive wrote reads +0, as it did when receives filled a zeroed
// block — also when the scratch the operand is assembled in last held
// that element's real value, and when overlapping views cover as many
// elements as the block has and still leave a hole.
func TestReceiveHoleReadsPositiveZero(t *testing.T) {
	rect, row := codegen.Rect{R0: 0, R1: 2, C0: 0, C1: 2}, codegen.Rect{R0: 0, R1: 1, C0: 0, C1: 2}
	src := newBlock(rect)
	src.data.Fill(func(i, j int) float64 { return float64(1 + 2*i + j) })
	dst := &block{rect: rect, views: []recvView{{row, src}, {row, src}}}
	m := matrix.New(2, 2)
	m.Fill(func(int, int) float64 { return math.Copysign(0, -1) })
	dst.readInto(m, 0, 0)
	for i, want := range []float64{1, 2, 0, 0} {
		if math.Float64bits(m.Data[i]) != math.Float64bits(want) {
			t.Fatalf("element %d = %#x, want %#x", i, math.Float64bits(m.Data[i]), math.Float64bits(want))
		}
	}

	p, streams, _, bInst, _ := mulInstances(t)
	ref, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, streams, machine.CM5(8)); err != nil {
		t.Fatal(err)
	}
	var hole codegen.Rect
	for _, stream := range streams.PerProc {
		for i, in := range stream {
			if in.Op == codegen.Recv && in.Dst == bInst && in.Payload.C1-in.Payload.C0 >= 2 && hole.Empty() {
				hole = in.Payload
				hole.C0 = (in.Payload.C0 + in.Payload.C1) / 2
				stream[i].Payload.C1 = hole.C0
			}
		}
	}
	if hole.Empty() {
		t.Fatal("no receive into B to cut short")
	}
	b := ref["B"].Clone()
	for i := hole.R0; i < hole.R1; i++ {
		for j := hole.C0; j < hole.C1; j++ {
			b.Set(i, j, 0)
		}
	}
	requireProduct(t, p, streams, ref["A"], b)
}

// TestOverlappingReceiveLaterWins: a receive that overlaps earlier ones
// overwrites them where they overlap. A Move of A's bits into B's
// consumer block, after all of B's receives, must leave A's values there.
func TestOverlappingReceiveLaterWins(t *testing.T) {
	p, streams, aInst, bInst, _ := mulInstances(t)
	ref, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	mul, _ := p.Producer("C")
	for pr, store := range clean.stores {
		a, b := store[aInst], store[bInst]
		if a == nil || b == nil || intersect(a.rect, b.rect).Empty() {
			continue
		}
		over := intersect(a.rect, b.rect)
		insert(t, streams, pr, execOf(mul), codegen.Instr{Op: codegen.Move, Payload: over, Src: aInst, Dst: bInst, Block: b.rect})
		want := ref["B"].Clone()
		want.CopyRect(over.R0, over.C0, ref["A"], over.R0, over.R1, over.C0, over.C1)
		requireProduct(t, p, streams, ref["A"], want)
		return
	}
	t.Fatal("no processor holds both a block of A and one of B's consumer instance")
}

// TestRedistributionDirectionIsEnforced: a receive into a producer
// instance that nothing has viewed yet, and a send or a move from a
// consumer instance, are refused by name. (A receive into a sealed
// producer instance is TestInsertIntoSealedBlockFails.)
func TestRedistributionDirectionIsEnforced(t *testing.T) {
	p, _, aInst, bInst, cInst := mulInstances(t)
	mul, _ := p.Producer("C")
	// Each case builds, for a processor and its store at the end of a
	// clean run, the instruction to insert before the multiply's Exec (or
	// after it, when afterMul), adding any instance or message it names
	// to the streams' tables.
	for _, tc := range []struct {
		name     string
		in       func(s *codegen.Streams, pr int, st []*block) codegen.Instr
		afterMul bool
		want     error
	}{
		{"move into an unviewed producer", func(_ *codegen.Streams, _ int, st []*block) codegen.Instr {
			c := st[cInst].rect
			return codegen.Instr{Op: codegen.Move, Payload: intersect(st[aInst].rect, c), Src: aInst, Dst: cInst, Block: c}
		}, true, errIntoOwner},
		{"move from a consumer", func(s *codegen.Streams, _ int, st []*block) codegen.Instr {
			b := st[bInst].rect
			s.Instances = append(s.Instances, codegen.Instance{Array: "X", Node: 99})
			return codegen.Instr{Op: codegen.Move, Payload: b, Src: bInst, Dst: int32(len(s.Instances) - 1), Block: b}
		}, false, errFromViews},
		{"send from a consumer", func(s *codegen.Streams, pr int, st []*block) codegen.Instr {
			s.Messages = append(s.Messages, codegen.Message{Src: bInst, Consumer: 99})
			return codegen.Instr{Op: codegen.Send, Peer: int32((pr + 1) % 8), Msg: int32(len(s.Messages) - 1), Payload: st[bInst].rect, Src: bInst}
		}, false, errFromViews},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, streams, _, _, _ := mulInstances(t)
			clean, err := Run(p, streams, machine.CM5(8))
			if err != nil {
				t.Fatal(err)
			}
			for pr, st := range clean.stores {
				a, b, c := st[aInst], st[bInst], st[cInst]
				if a == nil || b == nil || c == nil || intersect(a.rect, c.rect).Empty() {
					continue
				}
				before := execOf(mul)
				if tc.afterMul {
					before = nil
				}
				insert(t, streams, pr, before, tc.in(streams, pr, st))
				if _, err := Run(p, streams, machine.CM5(8)); !errors.Is(err, tc.want) || strings.Contains(err.Error(), "sealed") {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				return
			}
			t.Fatal("no processor holds blocks of A, B and C")
		})
	}
}

// TestSimAllocatesOnlyWhatTheResultKeeps: a run allocates the producer
// blocks its Result keeps and at most 1 MB besides. A receive records a
// view instead of filling a block, and scratch is recycled across runs.
// The least of five runs after a warm-up decides, so that a collection
// which empties the scratch pool between two runs does not.
func TestSimAllocatesOnlyWhatTheResultKeeps(t *testing.T) {
	strassen, err := programs.Strassen(128, calibration(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		p     *prog.Program
		procs int
	}{
		{"cmm256-p64", cmm(t, 256), 64},
		{"strassen128-p64", strassen, 64},
		{"cmm80-p20", cmm(t, 80), 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, streams := pipeline(t, tc.p, tc.procs)
			mp := machine.CM5(tc.procs)
			res, err := Run(tc.p, streams, mp)
			if err != nil {
				t.Fatal(err)
			}
			kept := uint64(0)
			for name := range tc.p.Arrays {
				producer, _ := tc.p.Producer(name)
				for _, store := range res.stores {
					if b := store[producer]; b != nil && b.data != nil {
						kept += uint64(8 * len(b.data.Data))
					}
				}
			}
			least := uint64(math.MaxUint64)
			var ms runtime.MemStats
			for i := 0; i < 5; i++ {
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				if _, err := Run(tc.p, streams, mp); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				least = min(least, ms.TotalAlloc-before)
			}
			t.Logf("%.2f MB allocated a run, %.2f MB of producer blocks", float64(least)/1e6, float64(kept)/1e6)
			if least > kept+1<<20 {
				t.Fatalf("a run allocates %d bytes, producer blocks are %d: over 1 MB besides", least, kept)
			}
		})
	}
}
