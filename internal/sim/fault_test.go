package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"paradigm/internal/errs"
	"paradigm/internal/fault"
	"paradigm/internal/machine"
	"paradigm/internal/matrix"
	"paradigm/internal/obs"
)

// runWithFaults is the fault-injection harness over the shared pipeline
// helper: one program, one plan, one run.
func runWithFaults(t *testing.T, n, procs int, o Options) (*Result, error) {
	t.Helper()
	p := mulProgram(t, n)
	_, streams := pipeline(t, p, procs)
	return RunCtx(context.Background(), p, streams, machine.CM5(procs), o)
}

func TestProcFailureClassified(t *testing.T) {
	_, err := runWithFaults(t, 16, 8, Options{
		Faults: &fault.Plan{ProcFails: []fault.ProcFail{{Proc: 2, At: 0}}},
	})
	if err == nil {
		t.Fatal("want halt from processor death at t=0")
	}
	if !errors.Is(err, errs.ErrProcessorLost) {
		t.Fatalf("err = %v, want ErrProcessorLost", err)
	}
	var halt *HaltError
	if !errors.As(err, &halt) {
		t.Fatalf("err = %T, want *HaltError", err)
	}
	if len(halt.Failed) != 1 || halt.Failed[0] != 2 {
		t.Fatalf("Failed = %v, want [2]", halt.Failed)
	}
	if halt.Partial == nil {
		t.Fatal("HaltError carries no partial result")
	}
	if got := halt.Partial.FailedProcs; len(got) != 1 || got[0] != 2 {
		t.Fatalf("Partial.FailedProcs = %v, want [2]", got)
	}
}

func TestMsgDropClassifiedAsMessageLost(t *testing.T) {
	_, err := runWithFaults(t, 16, 8, Options{
		Faults: &fault.Plan{MsgFaults: []fault.MsgFault{{Kind: fault.Drop, Seq: 0}}},
	})
	if err == nil {
		t.Skip("schedule generated no messages")
	}
	if !errors.Is(err, errs.ErrMessageLost) {
		t.Fatalf("err = %v, want ErrMessageLost", err)
	}
	if errors.Is(err, errs.ErrProcessorLost) {
		t.Fatal("message loss misclassified as processor loss")
	}
}

func TestDelayAndDuplicateBenign(t *testing.T) {
	rec := obs.NewRecorder()
	res, err := runWithFaults(t, 16, 8, Options{
		Observer: rec,
		Faults: &fault.Plan{MsgFaults: []fault.MsgFault{
			{Kind: fault.Delay, Seq: 0, Extra: 5e-3},
			{Kind: fault.Duplicate, Seq: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := mulProgram(t, 16)
	ref, _ := p.ReferenceRun()
	got, err := res.Gather("C")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, ref["C"], 0) {
		t.Fatal("delay/duplicate faults corrupted data")
	}
	kinds := map[string]int{}
	for _, e := range rec.Events() {
		if f, ok := e.(obs.Fault); ok {
			kinds[f.FaultKind]++
		}
	}
	if kinds["msg-delay"] != 1 || kinds["msg-duplicate"] != 1 {
		t.Fatalf("fault events = %v, want one msg-delay and one msg-duplicate", kinds)
	}
}

func TestStragglerStretchesRun(t *testing.T) {
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	mp := machine.CM5(8)
	clean, err := Run(p, streams, mp)
	if err != nil {
		t.Fatal(err)
	}
	mulID, _ := p.Producer("C")
	var plan fault.Plan
	for pr := 0; pr < 8; pr++ {
		plan.Stragglers = append(plan.Stragglers, fault.Straggler{Node: int(mulID), Proc: pr, Factor: 10})
	}
	rec := obs.NewRecorder()
	slow, err := RunCtx(context.Background(), p, streams, mp, Options{Observer: rec, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan <= clean.Makespan {
		t.Fatalf("straggler run %v not slower than clean %v", slow.Makespan, clean.Makespan)
	}
	ref, _ := p.ReferenceRun()
	got, _ := slow.Gather("C")
	if !matrix.Equal(got, ref["C"], 0) {
		t.Fatal("straggler corrupted data")
	}
	seen := false
	for _, e := range rec.Events() {
		if f, ok := e.(obs.Fault); ok && f.FaultKind == "straggler" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("no straggler fault event emitted")
	}
}

func TestCancelledContextBeatsHaltDiagnosis(t *testing.T) {
	// Satellite regression: an already-cancelled context must surface as
	// context.Canceled, never as a deadlock/fault diagnosis — even when
	// the fault plan would halt the run.
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, p, streams, machine.CM5(8), Options{
		Faults: &fault.Plan{ProcFails: []fault.ProcFail{{Proc: 0, At: 0}}},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, errs.ErrProcessorLost) || errors.Is(err, errs.ErrDeadlock) {
		t.Fatalf("cancellation misreported as halt: %v", err)
	}
}

func TestDeadPastStreamEndIsHarmless(t *testing.T) {
	// A fail time past a processor's last instruction never fires: the
	// run completes and verifies.
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	clean, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), p, streams, machine.CM5(8), Options{
		Faults: &fault.Plan{ProcFails: []fault.ProcFail{{Proc: 0, At: clean.Makespan * 10}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != clean.Makespan {
		t.Fatalf("late fail time changed makespan: %v vs %v", res.Makespan, clean.Makespan)
	}
}

func TestNodeDoneAndSalvage(t *testing.T) {
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	res, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C"} {
		prod, _ := p.Producer(name)
		if !res.NodeDone[prod] {
			t.Fatalf("producer of %q not marked done", name)
		}
	}
	ref, _ := p.ReferenceRun()
	got, ok := res.SalvageArray("C")
	if !ok {
		t.Fatal("SalvageArray failed on a complete fault-free run")
	}
	if !matrix.Equal(got, ref["C"], 0) {
		t.Fatal("salvaged C differs from reference")
	}

	// Block restoration respects failure: mark the owner of a C block
	// failed and salvage must refuse (its blocks are lost).
	prod, _ := p.Producer("C")
	owner := -1
	for pr := range res.stores {
		if b := res.stores[pr][prod]; b != nil && b.data != nil {
			owner = pr
			break
		}
	}
	if owner < 0 {
		t.Fatal("no C block owner found")
	}
	res.FailedProcs = []int{owner}
	if _, ok := res.SalvageArray("C"); ok {
		t.Fatal("SalvageArray used blocks of a failed processor")
	}

	// An un-executed producer blocks salvage even when blocks exist.
	res.FailedProcs = nil
	res.NodeDone[prod] = false
	if _, ok := res.SalvageArray("C"); ok {
		t.Fatal("SalvageArray trusted blocks of an unfinished node")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestMidRunDeathSalvageIsExact(t *testing.T) {
	// Kill one processor halfway through the clean makespan: whatever the
	// partial state lets us salvage must equal the reference bit for bit.
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	clean, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := p.ReferenceRun()
	for pr := 0; pr < 8; pr++ {
		_, err := RunCtx(context.Background(), p, streams, machine.CM5(8), Options{
			Faults: &fault.Plan{ProcFails: []fault.ProcFail{{Proc: pr, At: clean.Makespan / 2}}},
		})
		if err == nil {
			continue // this processor had finished by then
		}
		var halt *HaltError
		if !errors.As(err, &halt) {
			t.Fatalf("proc %d: err = %v, want *HaltError", pr, err)
		}
		for name := range p.Arrays {
			if got, ok := halt.Partial.SalvageArray(name); ok {
				if !matrix.Equal(got, ref[name], 0) {
					t.Fatalf("proc %d: salvaged %q differs from reference", pr, name)
				}
			}
		}
	}
}

func TestEmptyPlanByteIdentical(t *testing.T) {
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	clean, err := Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := RunCtx(context.Background(), p, streams, machine.CM5(8), Options{Faults: &fault.Plan{}})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Makespan != faulted.Makespan || clean.Messages != faulted.Messages {
		t.Fatalf("empty fault plan changed the run: %v/%d vs %v/%d",
			clean.Makespan, clean.Messages, faulted.Makespan, faulted.Messages)
	}
	a, _ := clean.Gather("C")
	b, _ := faulted.Gather("C")
	if !matrix.Equal(a, b, 0) {
		t.Fatal("empty fault plan changed the data")
	}
}

// TestMsgFaultByTag: a fault plan may address a message by its tag
// instead of its send sequence number, for each of the three kinds. The
// tag is one a clean run received: dropping it halts with message loss
// naming it, duplicating or delaying it fires a fault event naming it,
// and the delay shows in the message's arrival.
func TestMsgFaultByTag(t *testing.T) {
	p := mulProgram(t, 16)
	_, streams := pipeline(t, p, 8)
	mp := machine.CM5(8)
	clean := obs.NewRecorder()
	if _, err := RunCtx(context.Background(), p, streams, mp, Options{Observer: clean}); err != nil {
		t.Fatal(err)
	}
	var sent obs.Comm
	for _, e := range clean.Events() {
		if c, ok := e.(obs.Comm); ok {
			sent = c
			break
		}
	}
	if sent.Tag == "" {
		t.Fatal("clean run received no message")
	}
	ref, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	const extra = 5e-3
	for _, tc := range []struct {
		kind  fault.MsgFaultKind
		event string
	}{{fault.Drop, "msg-drop"}, {fault.Duplicate, "msg-duplicate"}, {fault.Delay, "msg-delay"}} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			rec := obs.NewRecorder()
			plan := &fault.Plan{MsgFaults: []fault.MsgFault{{Kind: tc.kind, Tag: sent.Tag, Seq: -1, Extra: extra}}}
			res, err := RunCtx(context.Background(), p, streams, mp, Options{Observer: rec, Faults: plan})
			fired := 0
			var got obs.Comm
			for _, e := range rec.Events() {
				switch e := e.(type) {
				case obs.Fault:
					if e.FaultKind != tc.event || e.Tag != sent.Tag || e.Proc != sent.From {
						t.Fatalf("fault event %+v, want %s of %s from P%d", e, tc.event, sent.Tag, sent.From)
					}
					fired++
				case obs.Comm:
					if e.Tag == sent.Tag {
						got = e
					}
				}
			}
			if fired != 1 {
				t.Fatalf("%d fault events, want one %s", fired, tc.event)
			}
			if tc.kind == fault.Drop {
				var halt *HaltError
				if !errors.As(err, &halt) || !errors.Is(err, errs.ErrMessageLost) {
					t.Fatalf("err = %v, want a message-loss halt", err)
				}
				if want := "recv(" + sent.Tag + ", dropped)"; !strings.Contains(halt.Blocked, want) {
					t.Fatalf("Blocked = %q, want it to name %s", halt.Blocked, want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if c, err := res.Gather("C"); err != nil || !matrix.Equal(c, ref["C"], 0) {
				t.Fatalf("faulted run's C differs from the reference (%v)", err)
			}
			if got.Tag == "" {
				t.Fatalf("%s never received", sent.Tag)
			}
			if tc.kind == fault.Delay && got.NetReady != sent.NetReady+extra {
				t.Fatalf("delayed message ready at %v, want %v", got.NetReady, sent.NetReady+extra)
			}
		})
	}
}
