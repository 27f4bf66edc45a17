// Package sim is the deterministic simulator of a distributed-memory
// multicomputer — the stand-in for the paper's 64-node Thinking Machines
// CM-5 (see DESIGN.md, substitution table).
//
// It interprets the MPMD instruction streams produced by internal/codegen.
// Every processor has a private block store, indexed by the streams'
// instance ids, and a virtual clock; messages are matched by message id
// with CM-5 receive semantics (the network transit is paid inside the
// receive, so t_n = 0 at the model level); kernel executions are group
// barriers whose per-processor cost comes from the machine ground truth
// in internal/kernels, including ceiling-based block imbalance and
// log-tree collectives. Tags and instance names are formatted only for
// events, tag-addressed faults and diagnostics.
//
// Crucially, real float64 data moves through the simulated network and
// real arithmetic runs in the kernels: Gather reassembles any produced
// array so tests can verify the end-to-end numerical result against the
// program's sequential reference. A scheduling or code-generation bug
// either deadlocks (reported with a full blocked-processor diagnosis) or
// produces wrong numbers — it cannot hide.
//
// None of that data movement belongs to the modelled machine, so it is
// done with as few host bytes as the semantics allow (DESIGN.md §7,
// "Simulator data plane"). A message or a local move carries a view of
// the sender's block, which the receive only records; the consumer's
// barrier copies each view once, into the operand its kernel reads. A
// block is sealed when first viewed and only a block that owns no data
// is received into, which makes the late copy equal to a snapshot taken
// at the send. The members of one group barrier compute disjoint output
// blocks from operands nobody writes. Above a fixed amount of work the
// step loop installs a barrier's output blocks and moves on, and the
// run's executor computes them, on internal/par's workers, as soon as the
// blocks they read are computed: independent barriers overlap, and only
// a reader of a block waits for it. Every output bit, virtual clock and
// event is the same at any pool width.
//
// Fault injection: Options.Faults attaches a deterministic fault.Plan.
// A fail-stop processor executes no instruction once its clock reaches
// its fail time; messages still in the network at its death are dropped,
// as are messages a Drop fault discards. When the run stops making
// progress, the virtual-time watchdog classifies the halt — processor
// loss, message loss, or plain deadlock — and returns a HaltError whose
// Partial result carries the surviving block stores and the set of
// completed nodes, the state the recovery driver replans from.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"paradigm/internal/codegen"
	"paradigm/internal/dist"
	"paradigm/internal/errs"
	"paradigm/internal/fault"
	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/matrix"
	"paradigm/internal/mdg"
	"paradigm/internal/obs"
	"paradigm/internal/par"
	"paradigm/internal/prog"
)

// block is one processor-local piece of an array instance: a producer's
// owns its data, a consumer's holds the views its receives delivered.
type block struct {
	rect  codegen.Rect
	data  *matrix.Matrix // producer: (R1-R0)×(C1-C0); nil for empty rects
	views []recvView     // consumer: in arrival order
	// sealed is set the first time a Send or Move takes a view of the
	// block: from then on a view may still read it, so it must never
	// change again.
	sealed bool
	// task, when set, is the executor's task computing data: the data is
	// read only after waiting for it (wait).
	task *task
}

// recvView is a received payload rectangle (global coordinates) of a sealed block.
type recvView struct {
	rect codegen.Rect
	src  *block
}

// A stream may not receive into a producer instance or send from a consumer one.
var (
	errIntoOwner = errors.New("receive into a block that owns data")
	errFromViews = errors.New("send or move from a consumer block, which holds views, not data")
)

// message is an in-flight payload: a view of the rectangle payload of
// the sender's block src, which the receive hands on to its destination.
// src is sealed, so whenever the view is read it holds what a snapshot
// taken at the send would have — also after the sender died, whose store
// stays in memory.
type message struct {
	readyAt float64
	payload codegen.Rect
	src     *block
	// from and the send window feed the per-message Comm event.
	from               int
	sendStart, sendEnd float64
	// dup marks a Duplicate-faulted message: the receiver pays one extra
	// tag-matching overhead discarding the spurious copy.
	dup bool
	// queued is set while the message is in the network.
	queued bool
}

// Options configures a simulated run.
type Options struct {
	// Observer, when non-nil, receives one obs.Comm event per received
	// message, one obs.NodeRun event per executed node, and one
	// obs.ProcStat event per processor at run end. Nil costs one pointer
	// comparison per would-be event.
	Observer obs.Observer
	// Faults, when non-nil, is the deterministic fault schedule this run
	// interprets: fail-stop deaths, message loss/duplication/delay, and
	// kernel stragglers. Each fault that fires emits one obs.Fault event.
	Faults *fault.Plan
}

// HaltError reports a simulated run that stopped before completing: the
// watchdog found no runnable instruction. It wraps one of the errs
// sentinels — ErrProcessorLost when a fail-stop death is implicated,
// ErrMessageLost when a receiver waits on a dropped message, ErrDeadlock
// otherwise — and carries the partial machine state the recovery driver
// replans from.
type HaltError struct {
	// Sentinel is errs.ErrProcessorLost, errs.ErrMessageLost or
	// errs.ErrDeadlock.
	Sentinel error
	// Failed lists fail-stop processors that died, ascending.
	Failed []int
	// Blocked describes each stuck processor and what it waits on.
	Blocked string
	// Partial is the machine state at the halt: clocks, completed nodes,
	// and the surviving block stores (failed processors' blocks are
	// lost — SalvageArray skips them).
	Partial *Result
}

// Error implements error.
func (e *HaltError) Error() string {
	return fmt.Sprintf("sim: %v;%s", e.Sentinel, e.Blocked)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *HaltError) Unwrap() error { return e.Sentinel }

// Result reports one simulated run.
type Result struct {
	// ProcClock holds each processor's final virtual time.
	ProcClock []float64
	// Makespan is the maximum final clock: the program's actual
	// execution time on the simulated machine.
	Makespan float64
	// NodeStart and NodeFinish are the actual execution windows of each
	// MDG node (barrier entry to slowest-member completion); dummy nodes
	// report zeros.
	NodeStart, NodeFinish []float64
	// Messages and NetworkBytes count point-to-point traffic.
	Messages     int
	NetworkBytes int
	// ProcBusy is each processor's time spent advancing its clock
	// (sends, receives, copies, kernel execution); Makespan minus the
	// final clock plus the intra-run waits is idle time. Indexed like
	// ProcClock.
	ProcBusy []float64
	// NodeDone marks nodes whose group barrier executed; dummy
	// (OpNone) nodes stay false — they run no barrier.
	NodeDone []bool
	// FailedProcs lists fail-stop processors that died during the run,
	// ascending (empty without a fault plan).
	FailedProcs []int

	// stores[pr][id] is processor pr's block of instance id, nil if it
	// holds none.
	stores [][]*block
	p      *prog.Program
	// fannedOut counts the barriers whose work reached fanOutWork: the
	// ones computed off the step loop, on the run's executor, when the
	// pool is wider than one. Tests read it.
	fannedOut int
}

// Run executes the streams on the machine profile. The profile's Procs
// must cover the stream count.
func Run(p *prog.Program, streams *codegen.Streams, mp machine.Params) (*Result, error) {
	return RunCtx(context.Background(), p, streams, mp, Options{})
}

// RunCtx is Run with cancellation and instrumentation: ctx is checked on
// every scheduler sweep of the step loop, so a cancelled context aborts
// the simulation promptly with ctx.Err().
func RunCtx(ctx context.Context, p *prog.Program, streams *codegen.Streams, mp machine.Params, o Options) (out *Result, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := mp.Validate(); err != nil {
		return nil, err
	}
	if mp.Procs < streams.Procs {
		return nil, fmt.Errorf("sim: machine has %d processors, program needs %d", mp.Procs, streams.Procs)
	}
	nProcs := streams.Procs
	nNodes := p.G.NumNodes()
	ob := o.Observer
	plan := o.Faults
	if plan.Empty() {
		plan = nil // one nil check per fault hook on the clean path
	}
	if err := plan.Validate(nProcs); err != nil {
		return nil, err
	}
	if err := checkIDs(p, streams); err != nil {
		return nil, err
	}
	nInst := len(streams.Instances)

	res := &Result{
		ProcClock:  make([]float64, nProcs),
		NodeStart:  make([]float64, nNodes),
		NodeFinish: make([]float64, nNodes),
		ProcBusy:   make([]float64, nProcs),
		NodeDone:   make([]bool, nNodes),
		stores:     make([][]*block, nProcs),
		p:          p,
	}
	flat := make([]*block, nProcs*nInst)
	for pr := range res.stores {
		res.stores[pr] = flat[pr*nInst : (pr+1)*nInst : (pr+1)*nInst]
	}

	pc := make([]int, nProcs)
	mailbox := make([]message, len(streams.Messages))
	// Fault bookkeeping: dead processors, and messages discarded by Drop
	// faults or by a sender's death (for the watchdog's classification).
	// A plan that addresses a message by tag needs every sent message's
	// tag; otherwise tags are formatted only for events.
	var dead, dropped []bool
	byTag := false
	if plan != nil {
		dead = make([]bool, nProcs)
		dropped = make([]bool, len(streams.Messages))
		for _, f := range plan.MsgFaults {
			byTag = byTag || f.Tag != ""
		}
	}
	// kill marks a processor dead at time at: it executes no further
	// instruction, and its messages still in the network are dropped.
	kill := func(pr int, at float64) {
		dead[pr] = true
		res.FailedProcs = append(res.FailedProcs, pr)
		sort.Ints(res.FailedProcs)
		type lostMsg struct {
			tag string
			id  int32
		}
		var lost []lostMsg
		for id, m := range mailbox {
			if m.queued && m.from == pr && m.readyAt > at {
				lost = append(lost, lostMsg{streams.Tag(int32(id)), int32(id)})
			}
		}
		// Drop events go out in tag order.
		slices.SortFunc(lost, func(a, b lostMsg) int { return strings.Compare(a.tag, b.tag) })
		for _, m := range lost {
			mailbox[m.id] = message{}
			dropped[m.id] = true
			if ob != nil {
				ob.Observe(obs.Fault{FaultKind: "msg-drop", Proc: pr, Node: -1, Tag: m.tag, Time: at})
			}
		}
		if ob != nil {
			ob.Observe(obs.Fault{FaultKind: "proc-fail", Proc: pr, Node: -1, Time: at})
		}
	}
	// One barrier per node; arrived holds every barrier's per-processor
	// flags, node-major.
	type barrier struct {
		count    int
		executed bool
		start    float64
	}
	barriers := make([]barrier, nNodes)
	arrived := make([]bool, nNodes*nProcs)
	nr := nodeRunner{res: res, p: p, streams: streams, mp: mp, ob: ob, plan: plan, sc: scratchPool.Get().(*scratch), width: par.Workers()}
	defer scratchPool.Put(nr.sc)
	// Every exit waits for the executor, if the run started one, so that
	// no goroutine outlives the run and a Result or a halt's Partial holds
	// finished blocks. A task's failure comes from an earlier barrier than
	// whatever stopped the step loop, and replaces it.
	defer func() {
		if nr.ex == nil {
			return
		}
		r := recover()
		if ferr := nr.ex.finish(); ferr != nil {
			out, err = nil, ferr
			return
		}
		if r != nil {
			panic(r)
		}
	}()

	// step attempts to advance processor pr by one instruction. Returns
	// whether progress was made, or an error.
	step := func(pr int) (bool, error) {
		stream := streams.PerProc[pr]
		if pc[pr] >= len(stream) {
			return false, nil
		}
		in := &stream[pc[pr]]
		switch in.Op {
		case codegen.Send:
			src := res.stores[pr][in.Src]
			if src == nil {
				return false, fmt.Errorf("sim: proc %d sends from missing instance %q", pr, streams.InstanceName(in.Src))
			}
			if err := view(src, in.Payload); err != nil {
				return false, fmt.Errorf("sim: proc %d send %q: %w", pr, streams.Tag(in.Msg), err)
			}
			bytes := float64(in.Payload.Bytes())
			sendStart := res.ProcClock[pr]
			cost := mp.SendStartup + bytes*mp.SendPerByte
			res.ProcClock[pr] += cost
			res.ProcBusy[pr] += cost
			if mailbox[in.Msg].queued {
				return false, fmt.Errorf("sim: duplicate message tag %q", streams.Tag(in.Msg))
			}
			seq := res.Messages
			res.Messages++
			res.NetworkBytes += in.Payload.Bytes()
			msg := message{
				readyAt:   res.ProcClock[pr] + bytes*mp.NetPerByte,
				payload:   in.Payload,
				src:       src,
				from:      pr,
				sendStart: sendStart,
				sendEnd:   res.ProcClock[pr],
				queued:    true,
			}
			tag := ""
			if byTag {
				tag = streams.Tag(in.Msg)
			}
			if mf, hit := plan.MsgFaultFor(seq, tag); hit {
				if ob != nil && tag == "" {
					tag = streams.Tag(in.Msg)
				}
				switch mf.Kind {
				case fault.Drop:
					// The sender paid its cost; the payload never arrives.
					// The blocked receiver is the watchdog's problem.
					dropped[in.Msg] = true
					if ob != nil {
						ob.Observe(obs.Fault{FaultKind: "msg-drop", Proc: pr, Node: -1, Tag: tag, Time: res.ProcClock[pr]})
					}
					pc[pr]++
					return true, nil
				case fault.Duplicate:
					msg.dup = true
					if ob != nil {
						ob.Observe(obs.Fault{FaultKind: "msg-duplicate", Proc: pr, Node: -1, Tag: tag, Time: res.ProcClock[pr]})
					}
				case fault.Delay:
					msg.readyAt += mf.Extra
					if ob != nil {
						ob.Observe(obs.Fault{FaultKind: "msg-delay", Proc: pr, Node: -1, Tag: tag, Time: res.ProcClock[pr]})
					}
				}
			}
			mailbox[in.Msg] = msg
			pc[pr]++
			return true, nil

		case codegen.Recv:
			msg := mailbox[in.Msg]
			if !msg.queued {
				return false, nil // blocked: sender not there yet
			}
			mailbox[in.Msg] = message{}
			bytes := float64(in.Payload.Bytes())
			t := math.Max(res.ProcClock[pr], msg.readyAt)
			cost := mp.RecvStartup + mp.MsgMatchOverhead + bytes*mp.RecvPerByte
			if msg.dup {
				// Discarding the spurious duplicate copy costs one extra
				// tag match; the payload itself is idempotent.
				cost += mp.MsgMatchOverhead
			}
			res.ProcClock[pr] = t + cost
			res.ProcBusy[pr] += cost
			if ob != nil {
				ob.Observe(obs.Comm{
					Tag: streams.Tag(in.Msg), From: msg.from, To: pr,
					Bytes:     in.Payload.Bytes(),
					SendStart: msg.sendStart, SendEnd: msg.sendEnd,
					NetReady: msg.readyAt, RecvStart: t, RecvEnd: res.ProcClock[pr],
				})
			}
			if err := receive(res.stores[pr], in.Dst, in.Block, in.Payload, msg.src); err != nil {
				return false, fmt.Errorf("sim: proc %d recv %q: %w", pr, streams.Tag(in.Msg), err)
			}
			pc[pr]++
			return true, nil

		case codegen.Move:
			src := res.stores[pr][in.Src]
			if src == nil {
				return false, fmt.Errorf("sim: proc %d moves from missing instance %q", pr, streams.InstanceName(in.Src))
			}
			if err := view(src, in.Payload); err != nil {
				return false, fmt.Errorf("sim: proc %d move: %w", pr, err)
			}
			if err := receive(res.stores[pr], in.Dst, in.Block, in.Payload, src); err != nil {
				return false, fmt.Errorf("sim: proc %d move: %w", pr, err)
			}
			cost := float64(in.Payload.Bytes()) * mp.CopyPerByte
			res.ProcClock[pr] += cost
			res.ProcBusy[pr] += cost
			pc[pr]++
			return true, nil
		}
		// Exec; checkIDs refused every other op.
		b := &barriers[in.Node]
		if b.executed {
			pc[pr]++
			return true, nil
		}
		if here := &arrived[int(in.Node)*nProcs+pr]; !*here {
			*here = true
			b.count++
			if b.start < res.ProcClock[pr] {
				b.start = res.ProcClock[pr]
			}
		}
		if b.count < len(streams.Groups[in.Node]) {
			return false, nil // blocked on slower group members
		}
		// Last arrival executes the node for the whole group.
		if err := nr.execNode(ctx, in.Node, b.start); err != nil {
			return false, err
		}
		b.executed = true
		pc[pr]++
		return true, nil
	}

	for {
		// One cancellation check per scheduler sweep: cheap relative to
		// the work a sweep performs, and prompt enough that an
		// already-cancelled context aborts before any instruction runs.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		progress := false
		done := true
		for pr := 0; pr < nProcs; pr++ {
			for {
				// Fail-stop check before every instruction: a processor
				// whose clock reached its fail time while work remains
				// dies here. A fail time past the last instruction has no
				// effect — the processor already finished its stream.
				if plan != nil && !dead[pr] && pc[pr] < len(streams.PerProc[pr]) {
					if at, ok := plan.FailAt(pr); ok && res.ProcClock[pr] >= at {
						kill(pr, at)
						progress = true
					}
				}
				if dead != nil && dead[pr] {
					break
				}
				adv, err := step(pr)
				if err != nil {
					return nil, err
				}
				if !adv {
					break
				}
				progress = true
			}
			if pc[pr] < len(streams.PerProc[pr]) && (dead == nil || !dead[pr]) {
				done = false
			}
		}
		if done {
			incomplete := false
			for _, fp := range res.FailedProcs {
				if pc[fp] < len(streams.PerProc[fp]) {
					incomplete = true
					break
				}
			}
			if !incomplete {
				break
			}
			// Survivors ran out of work but a dead processor's stream never
			// finished: the run cannot have produced every array, so a
			// silent "success" here would hide the loss.
			return nil, halt(streams, pc, dead, dropped, res)
		}
		if !progress {
			// A cancelled context is not a deadlock: re-check before
			// diagnosing, so callers racing cancellation against a stuck
			// sweep get context.Canceled, not a misleading halt report.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, halt(streams, pc, dead, dropped, res)
		}
	}

	for _, c := range res.ProcClock {
		if c > res.Makespan {
			res.Makespan = c
		}
	}
	if ob != nil {
		for pr := 0; pr < nProcs; pr++ {
			ob.Observe(obs.ProcStat{
				Proc: pr,
				Busy: res.ProcBusy[pr],
				Idle: res.Makespan - res.ProcBusy[pr],
			})
		}
	}
	return res, nil
}

// fanOutWork is the least work in one group barrier, in multiply-adds,
// at which the barrier is heavy: with a pool wider than one, the run's
// executor computes its blocks off the step loop, the members' slots on
// internal/par's workers, once the blocks they read are computed. Below
// it the slots run inline in slot order, on the step loop's goroutine,
// once those blocks are computed. It is the only threshold of the data
// plane. barrierWork prices the other kernels in the same unit.
//
// Measured barrier by barrier in CMM simulations on 64 processors, two
// cores: time inline over time on two workers, for an init barrier / a
// multiply barrier. The init half is the first sweep's (initElemWork's
// comment has its re-measure); the multiply half is matrix.MulStrip on
// its AVX-512 kernel (0.075–0.10 ns a multiply-add inline, block
// allocation included), the range of two rounds.
//
//	n     inline µs          second core idle      second core busy
//	48      39 /   21–24      0.93 / 0.70–0.80      0.92 / 0.69–0.78
//	96     150 /   93–99      0.88 / 1.19–1.45      0.94 / 0.92–0.94
//	112          142–151           1.35–1.53             1.03–1.21
//	128    261 /  194–214     1.41 / 1.50–1.57      0.96 / 0.94–0.95
//	192    704 /  567–615     1.65 / 1.76–1.83      0.94 / 0.96–0.99
//	256   1195 / 1253–1463    1.79 / 1.79–1.82      1.00 / 1.00–1.02
//
// The AVX kernel, measured in the same rounds, read 0.69–0.84, 1.06–1.57
// and 1.50–1.68 idle at n = 48, 96 and 128, and 0.90–1.04 busy
// throughout: the wider kernel moved no break-even. A multiply fan-out
// gains from n ≈ 96 with the second core idle, as does an init fan-out
// (the re-measure below), and with the second core busy — paradigmd at -workers = cores
// — neither buys anything at any size, and a fan-out ties the job to
// whichever goroutine the scheduler reaches last. So the threshold sits
// where the gain is clear for both kernels, n = 128, and a job the size
// of a typical service request (n ≤ 127, TestServiceSizedRunStaysInline,
// TestOnlyHeavyRunsStartAnExecutor) never leaves its worker's goroutine.
// The executor moved no break-even: it overlaps heavy barriers with each
// other, and a light one still runs where it ran.
const fanOutWork = 1 << 21

// What one output element of a barrier costs, in multiply-adds, measured
// where it decides something (n = 128, the table above): an OpInit
// element was a call into the program's Init, a math.Sin for CMM, 16 ns
// against a multiply-add's 0.12. Init now fills a row at a time through
// matrix.Sin, and an init barrier re-measured the same way (init column
// only) reads
//
//	n     inline µs    second core idle    second core busy
//	48       21–25          0.76                0.83
//	96       73–80          1.15                0.80
//	128    145–187       1.22–1.37              1.02
//	192    350–504       1.30–1.41              1.05
//	256    613–659       1.56–1.74              0.99
//
// so an element is 9–10 ns, allocation and argument included, ≈ 80
// multiply-adds (≈ 100 at the AVX-512 kernel's 0.09–0.10 ns), and a fan-out from n = 128 still gains with the second
// core idle and ties with it busy. The price stays where it was: between
// 32 and 128 it moves no barrier of CMM-256 or of a service-sized job
// (n ≤ 127) across fanOutWork, only those of CMM-128 to CMM-255. An
// element of an element-wise or copying kernel is mostly the allocation
// of the block it lands in (2.3–2.7 ns; no gain from a fan-out was seen
// up to n = 256).
const (
	initElemWork = 128
	elemWork     = 16
)

// barrierWork is the data work of one group barrier of kernel k over an
// output of the given number of elements, in the unit of fanOutWork.
func barrierWork(k kernels.Kernel, elements int) int {
	switch k.Op {
	case kernels.OpMul:
		return elements * k.K
	case kernels.OpInit:
		return elements * initElemWork
	}
	return elements * elemWork
}

// nodeRunner executes the group barriers of one run.
type nodeRunner struct {
	res     *Result
	p       *prog.Program
	streams *codegen.Streams
	mp      machine.Params
	ob      obs.Observer
	plan    *fault.Plan
	sc      *scratch
	// width is the pool width read when the run began. ex is the run's
	// executor: nil until the first barrier at fanOutWork when width > 1,
	// and then for the rest of the run.
	width int
	ex    *executor
}

// scratch is the run's one set of transient operand matrices, lent to
// the barriers computing at the same time and matched by capacity. None
// reaches a Result, so a run returns the set to scratchPool on every exit.
type scratch struct {
	mu   sync.Mutex
	bufs []scratchBuf
}

// scratchBuf is one matrix of a scratch set and the barrier it is lent
// to, nil while it is free.
type scratchBuf struct {
	m  *matrix.Matrix
	to *barrierData
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// get lends d a rows×cols matrix until release(d): the free one of least
// capacity that holds it, or a new one. A recycled one keeps its old
// contents: the borrower must overwrite every element.
func (s *scratch) get(d *barrierData, rows, cols int) *matrix.Matrix {
	n := rows * cols
	s.mu.Lock()
	at := -1
	for i, b := range s.bufs {
		if b.to == nil && cap(b.m.Data) >= n && (at < 0 || cap(b.m.Data) < cap(s.bufs[at].m.Data)) {
			at = i
		}
	}
	var m *matrix.Matrix
	if at >= 0 {
		s.bufs[at].to = d
		m = s.bufs[at].m
	}
	s.mu.Unlock()
	if m == nil {
		m = matrix.New(rows, cols)
		s.mu.Lock()
		s.bufs = append(s.bufs, scratchBuf{m, d})
		s.mu.Unlock()
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// release frees every matrix lent to d.
func (s *scratch) release(d *barrierData) {
	s.mu.Lock()
	for i := range s.bufs {
		if s.bufs[i].to == d {
			s.bufs[i].to = nil
		}
	}
	s.mu.Unlock()
}

// barrierData is the data work of one group barrier, resolved on the
// step loop: the output block of each member and the operand blocks of
// each input, both in slot order.
type barrierData struct {
	node mdg.NodeID
	k    kernels.Kernel
	outs []*block
	ops  [][]*block
}

// execNode runs one kernel as a group: advances every member's clock by
// its ground-truth cost (linear or grid layout), emits the node's events,
// installs its output blocks and has their data computed (compute); a
// cancelled ctx stops the block computation.
func (nr *nodeRunner) execNode(ctx context.Context, node mdg.NodeID, start float64) error {
	res, p, mp, ob := nr.res, nr.p, nr.mp, nr.ob
	spec := p.Specs[node]
	k := spec.Kernel
	group := nr.streams.Groups[node]
	q := len(group)
	arr := p.Arrays[spec.Output]
	outPlace, err := codegen.PlacementFor(arr, spec.Axis, group)
	if err != nil {
		return fmt.Errorf("sim: node %d: %w", node, err)
	}
	if len(outPlace.Blocks) != q {
		return fmt.Errorf("sim: node %d placement has %d blocks for %d processors", node, len(outPlace.Blocks), q)
	}

	// Advance clocks: each member pays its own share (block imbalance),
	// scaled by the machine's execution jitter (OS noise emulation).
	pr, pc := 0, 0
	if spec.Axis == dist.ByGrid {
		pr, pc = dist.GridShape(q)
	}
	finish := start
	for slot, proc := range group {
		b := outPlace.Blocks[slot]
		if b.Proc != proc {
			return fmt.Errorf("sim: node %d slot %d placement/group mismatch (%d vs %d)", node, slot, b.Proc, proc)
		}
		var cost float64
		if spec.Axis == dist.ByGrid {
			cost = k.GridProcTime(mp, pr, pc, b.R1-b.R0, b.C1-b.C0)
		} else {
			extent := b.R1 - b.R0
			if spec.Axis == dist.ByCol {
				extent = b.C1 - b.C0
			}
			cost = k.ProcTime(mp, q, extent)
		}
		// Heterogeneous profiles: processor-relative speed scales the
		// compute cost (communication costs stay machine-wide). The guard
		// keeps homogeneous runs bit-identical — no division is applied.
		if s := mp.SpeedOf(proc); s != 1 {
			cost /= s
		}
		if f := nr.plan.SlowdownFor(int(node), proc); f > 1 {
			cost *= f
			if ob != nil {
				ob.Observe(obs.Fault{FaultKind: "straggler", Proc: proc, Node: int(node), Time: start})
			}
		}
		t := start + cost*mp.Jitter(int(node), proc)
		res.ProcClock[proc] = t
		res.ProcBusy[proc] += t - start
		if t > finish {
			finish = t
		}
	}
	res.NodeStart[node] = start
	res.NodeFinish[node] = finish
	if ob != nil {
		ob.Observe(obs.NodeRun{
			Node: int(node), Start: start, Finish: finish, Procs: q,
		})
	}
	if k.Op == kernels.OpNone {
		return nil
	}
	res.NodeDone[node] = true

	// Resolve every operand to its members' blocks, each checked against
	// the operand's placement over the group; an absent block is
	// tolerated only for an empty share.
	rectOf := func(b dist.PlacedRect) codegen.Rect {
		return codegen.Rect{R0: b.R0, R1: b.R1, C0: b.C0, C1: b.C1}
	}
	d := &barrierData{node: node, k: k, outs: make([]*block, q), ops: make([][]*block, len(spec.Inputs))}
	for operand := range d.ops {
		inst := nr.streams.Operands[node][operand]
		a := p.Arrays[spec.Inputs[operand]]
		pl := outPlace
		if a.Rows != arr.Rows || a.Cols != arr.Cols {
			if pl, err = codegen.PlacementFor(a, spec.Axis, group); err != nil {
				return err
			}
		}
		blocks := make([]*block, q)
		for slot, proc := range group {
			want := rectOf(pl.Blocks[slot])
			b := res.stores[proc][inst]
			switch {
			case b != nil && b.rect != want:
				return fmt.Errorf("sim: node %d slot %d operand %d block %v, want %v",
					node, slot, operand, b.rect, want)
			case b == nil && !want.Empty():
				return fmt.Errorf("sim: node %d proc %d missing input instance %q", node, proc, nr.streams.InstanceName(inst))
			case b == nil:
				b = &block{rect: want}
			}
			blocks[slot] = b
		}
		d.ops[operand] = blocks
	}
	// Install the output blocks, on this goroutine: later instructions
	// may view them before their data is computed, which is safe because
	// only a barrier reads a block's data, after waiting for it. A node's
	// output instance has the node's id.
	for slot, proc := range group {
		out := &block{rect: rectOf(outPlace.Blocks[slot])}
		if !out.rect.Empty() {
			out.data = &matrix.Matrix{Rows: out.rect.R1 - out.rect.R0, Cols: out.rect.C1 - out.rect.C0}
		}
		if k.Op == kernels.OpAdd || k.Op == kernels.OpSub {
			if a, b := d.ops[0][slot].rect, d.ops[1][slot].rect; !out.rect.Empty() && (a != out.rect || b != out.rect) {
				return fmt.Errorf("sim: node %d proc %d operand blocks %v/%v mismatch output %v", node, proc, a, b, out.rect)
			}
		}
		d.outs[slot] = out
		res.stores[proc][node] = out
	}

	heavy := barrierWork(k, arr.Rows*arr.Cols) >= fanOutWork
	if heavy {
		res.fannedOut++
	}
	if !heavy || nr.width == 1 {
		return nr.compute(ctx, d, 1)
	}
	if nr.ex == nil {
		nr.ex = newExecutor(nr.width, len(nr.streams.Groups))
	}
	nr.ex.submit(d.outs, func() error { return nr.compute(ctx, d, nr.width) })
	return nil
}

// compute fills the output blocks of d, the members' slots on at most
// workers goroutines. The operands are first read into matrices borrowed
// from the run's scratch set — a full operand where a kernel reads
// across members — and then every member's block is computed from them:
// each a disjoint block built from operands nobody writes, so the slots
// can run on any worker in any order and give the bits a serial loop
// gives. On a run with an executor it first waits for every block it
// reads.
func (nr *nodeRunner) compute(ctx context.Context, d *barrierData, workers int) error {
	node, k, ops := d.node, d.k, d.ops
	if nr.ex != nil {
		if err := ready(ops); err != nil {
			return err
		}
	}
	defer nr.sc.release(d)
	// assembleInto reassembles a full operand from the group's blocks
	// (the data image of the gathers whose cost the ProcTime rules
	// already charged) into dst anchored at (r0, c0). The blocks are a
	// placement's, which partitions the operand, and readInto writes all
	// of a block: every element of the operand's rectangle of dst is
	// overwritten.
	assembleInto := func(dst *matrix.Matrix, r0, c0, operand int) {
		for _, b := range ops[operand] {
			b.readInto(dst, r0+b.rect.R0, c0+b.rect.C0)
		}
	}
	assemble := func(operand int) *matrix.Matrix {
		a := nr.p.Arrays[nr.p.Specs[node].Inputs[operand]]
		full := nr.sc.get(d, a.Rows, a.Cols)
		assembleInto(full, 0, 0, operand)
		return full
	}
	// materialize reads every member's block of an operand into scratch.
	materialize := func(operand int) []*matrix.Matrix {
		data := make([]*matrix.Matrix, len(d.outs))
		for slot, b := range ops[operand] {
			if !b.rect.Empty() {
				data[slot] = nr.sc.get(d, b.rect.R1-b.rect.R0, b.rect.C1-b.rect.C0)
				b.readInto(data[slot], 0, 0)
			}
		}
		return data
	}

	// fill computes one member's non-empty output block.
	var fill func(slot int, out *block) error
	switch k.Op {
	case kernels.OpInit:
		fill = func(_ int, out *block) error {
			r0, c0, w := out.rect.R0, out.rect.C0, out.data.Cols
			for i := range out.data.Rows {
				k.Init(r0+i, c0, out.data.Data[i*w:][:w])
			}
			return nil
		}

	case kernels.OpAdd, kernels.OpSub:
		aData, bData := materialize(0), materialize(1)
		op := matrix.Add
		if k.Op == kernels.OpSub {
			op = matrix.Sub
		}
		fill = func(slot int, out *block) error {
			if err := op(out.data, aData[slot], bData[slot]); err != nil {
				return fmt.Errorf("sim: node %d: %w", node, err)
			}
			return nil
		}

	case kernels.OpExtract:
		full := assemble(0)
		fill = func(_ int, out *block) error {
			out.data.CopyRect(0, 0, full,
				k.OffR+out.rect.R0, k.OffR+out.rect.R1,
				k.OffC+out.rect.C0, k.OffC+out.rect.C1)
			return nil
		}

	case kernels.OpAssemble4:
		composed := nr.sc.get(d, k.M, k.N)
		hr, hc := k.M/2, k.N/2
		for idx, anchor := range [][2]int{{0, 0}, {0, hc}, {hr, 0}, {hr, hc}} {
			assembleInto(composed, anchor[0], anchor[1], idx)
		}
		fill = func(_ int, out *block) error {
			out.data.CopyRect(0, 0, composed, out.rect.R0, out.rect.R1, out.rect.C0, out.rect.C1)
			return nil
		}

	case kernels.OpMul:
		// Assemble both operands from the group's blocks; each member
		// multiplies its output rectangle's row strip of A by its column
		// strip of B, read in place. Correct for every layout; the
		// layout-specific gather costs were charged above. On the
		// executor, where products in flight share the scratch set, A is
		// not assembled when every member's rows of it are whole rows of
		// the blocks its views read (rowViews): each member multiplies
		// those rows where they lie, so that a product holds half the
		// scratch. A barrier on the step loop keeps assembling A.
		fullB := assemble(1)
		var fullA *matrix.Matrix
		if workers == 1 || !rowViews(ops[0], d.outs, fullB.Rows) {
			fullA = assemble(0)
		}
		fill = func(slot int, out *block) error {
			r := out.rect
			if fullA != nil {
				if err := matrix.MulStrip(out.data, fullA, r.R0, r.R1, fullB, r.C0, r.C1); err != nil {
					return fmt.Errorf("sim: node %d: %w", node, err)
				}
				return nil
			}
			for _, v := range ops[0][slot].views {
				rows, s := v.rect.R1-v.rect.R0, v.src.rect
				dst := matrix.Matrix{Rows: rows, Cols: out.data.Cols, Data: out.data.Data[(v.rect.R0-r.R0)*out.data.Cols:][:rows*out.data.Cols]}
				if err := matrix.MulStrip(&dst, v.src.data, v.rect.R0-s.R0, v.rect.R1-s.R0, fullB, r.C0, r.C1); err != nil {
					return fmt.Errorf("sim: node %d: %w", node, err)
				}
			}
			return nil
		}

	default:
		return fmt.Errorf("sim: node %d: unknown op %v", node, k.Op)
	}

	return par.DoN(ctx, workers, len(d.outs), func(_ context.Context, slot int) error {
		out := d.outs[slot]
		if out.data == nil {
			return nil
		}
		out.data.Data = make([]float64, out.data.Rows*out.data.Cols)
		return fill(slot, out)
	})
}

// rowViews reports whether every non-empty output block's rows of the
// operand A, inner columns wide, are the block blocks[slot] holds and are
// read whole from its views: the views partition the block, and each
// takes whole rows of a source block that is itself whole rows. Then
// the rows of each view lie end to end in its source's data, as the
// multiply kernel reads them.
func rowViews(blocks, outs []*block, inner int) bool {
	for slot, b := range blocks {
		out := outs[slot]
		if out.data == nil {
			continue
		}
		if b.rect != (codegen.Rect{R0: out.rect.R0, R1: out.rect.R1, C1: inner}) || b.data != nil || !b.partitioned() {
			return false
		}
		for _, v := range b.views {
			if v.rect.C0 != 0 || v.rect.C1 != inner || v.src.rect.C0 != 0 || v.src.rect.C1 != inner {
				return false
			}
		}
	}
	return true
}

// executor computes the data of a run's barriers at fanOutWork off the
// step loop, on width goroutines. The step loop keeps everything that
// decides the run — clocks, events, operand resolution, the stores — and
// hands a task only the data work of a barrier whose output blocks it
// has installed. Each block records its task, and whatever reads a block
// waits for that task first (ready): a task for the blocks of the
// operands it reads, the step loop before a light barrier does. Tasks
// are queued in barrier order and a task waits only for earlier ones, so
// the earliest unfinished task always proceeds.
type executor struct {
	tasks chan *task
	wg    sync.WaitGroup
	next  int // barrier order of the next task, kept by the step loop

	mu    sync.Mutex
	first *task // the failed task first in barrier order
}

// task is the data work of one barrier on an executor.
type task struct {
	seq  int
	run  func() error
	done chan struct{}
	// Set before done is closed: failed when the task returned an error
	// or panicked, err and panicked with what it did, unless it stopped
	// because a block it reads failed (errProducerFailed).
	failed   bool
	err      error
	panicked any
}

// errProducerFailed stops a barrier whose operands a failed task was to
// compute. The run reports that task's failure, never this.
var errProducerFailed = errors.New("sim: a block this barrier reads was not computed")

// executorsStarted counts the executors started in this process. Tests
// read it.
var executorsStarted atomic.Int64

// newExecutor starts width goroutines taking tasks from a queue that
// holds capacity of them. A run passes its node count: a node's barrier
// executes once, so submit never blocks the step loop.
func newExecutor(width, capacity int) *executor {
	executorsStarted.Add(1)
	e := &executor{tasks: make(chan *task, capacity)}
	e.wg.Add(width)
	for range width {
		go func() {
			defer e.wg.Done()
			for t := range e.tasks {
				e.run(t)
			}
		}()
	}
	return e
}

// submit queues run as the task computing outs, which it marks as that
// task's blocks first.
func (e *executor) submit(outs []*block, run func() error) {
	t := &task{seq: e.next, run: run, done: make(chan struct{})}
	e.next++
	for _, out := range outs {
		out.task = t
	}
	e.tasks <- t
}

// run runs one task, recovering its panic as DoN does.
func (e *executor) run(t *task) {
	defer close(t.done)
	defer func() {
		if r := recover(); r != nil {
			t.failed, t.panicked = true, r
			e.record(t)
		}
	}()
	err := t.run()
	t.run = nil // what it captured is not needed after it ran
	if err != nil {
		t.failed = true
		if !errors.Is(err, errProducerFailed) {
			t.err = err
			e.record(t)
		}
	}
}

// record keeps t if it is the failed task first in barrier order so far.
func (e *executor) record(t *task) {
	e.mu.Lock()
	if e.first == nil || t.seq < e.first.seq {
		e.first = t
	}
	e.mu.Unlock()
}

// finish waits for every task and reports the failure first in barrier
// order, re-raising a task's panic here, on the run's goroutine, where a
// barrier computed inline would have raised it.
func (e *executor) finish() error {
	close(e.tasks)
	e.wg.Wait()
	if t := e.first; t != nil {
		if t.panicked != nil {
			panic(t.panicked)
		}
		return t.err
	}
	return nil
}

// ready waits until every block the operands read has been computed: each
// operand block, and the source of each of its views.
func ready(ops [][]*block) error {
	for _, blocks := range ops {
		for _, b := range blocks {
			if err := b.wait(); err != nil {
				return err
			}
			for _, v := range b.views {
				if err := v.src.wait(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// wait waits for the task computing b, if there is one.
func (b *block) wait() error {
	if t := b.task; t != nil {
		<-t.done
		if t.failed {
			return errProducerFailed
		}
	}
	return nil
}

// checkIDs refuses streams that do not fit their tables or the program:
// an unknown op, or an id outside the table it indexes.
func checkIDs(p *prog.Program, s *codegen.Streams) error {
	nNodes := p.G.NumNodes()
	if len(s.Groups) != nNodes || len(s.Operands) != nNodes || len(s.Instances) < nNodes {
		return fmt.Errorf("sim: streams' tables (%d groups, %d operand lists, %d instances) do not fit a program of %d nodes",
			len(s.Groups), len(s.Operands), len(s.Instances), nNodes)
	}
	inst := func(id int32) bool { return id >= 0 && int(id) < len(s.Instances) }
	for node, ops := range s.Operands {
		if len(ops) != len(p.Specs[node].Inputs) && p.Specs[node].Kernel.Op != kernels.OpNone {
			return fmt.Errorf("sim: node %d has %d operand instances for %d inputs", node, len(ops), len(p.Specs[node].Inputs))
		}
		for _, id := range ops {
			if !inst(id) {
				return fmt.Errorf("sim: node %d operand instance %d outside [0,%d)", node, id, len(s.Instances))
			}
		}
	}
	for pr, stream := range s.PerProc {
		for i, in := range stream {
			msg := in.Msg >= 0 && int(in.Msg) < len(s.Messages)
			var ok bool
			switch in.Op {
			case codegen.Send:
				ok = msg && inst(in.Src)
			case codegen.Recv:
				ok = msg && inst(in.Dst)
			case codegen.Move:
				ok = inst(in.Src) && inst(in.Dst)
			case codegen.Exec:
				ok = in.Node >= 0 && int(in.Node) < nNodes
			default:
				return fmt.Errorf("sim: proc %d: unknown instruction %v", pr, in.Op)
			}
			if !ok {
				return fmt.Errorf("sim: proc %d instruction %d: %v addresses an id outside the streams' tables", pr, i, in.Op)
			}
		}
	}
	return nil
}

// holds reports whether r (global coordinates) lies inside b.
func (b *block) holds(r codegen.Rect) bool {
	return r.R0 >= b.rect.R0 && r.R1 <= b.rect.R1 && r.C0 >= b.rect.C0 && r.C1 <= b.rect.C1
}

// view checks that rect lies inside b, a block that owns data, and seals
// b: the caller is about to hold a view of it.
func view(b *block, rect codegen.Rect) error {
	switch {
	case !b.holds(rect):
		return fmt.Errorf("rect %v outside block %v", rect, b.rect)
	case b.views != nil:
		return fmt.Errorf("%w: block %v", errFromViews, b.rect)
	case b.data == nil:
		return fmt.Errorf("extract from empty block %v", b.rect)
	}
	b.sealed = true
	return nil
}

// receive records, in the block of instance inst in store (created over
// blockRect if absent), that its rectangle rect now reads from src, which
// view has checked and sealed. Nothing is copied until readInto.
func receive(store []*block, inst int32, blockRect, rect codegen.Rect, src *block) error {
	dst := store[inst]
	if dst == nil {
		dst = &block{rect: blockRect}
		store[inst] = dst
	}
	switch {
	case !dst.holds(rect):
		return fmt.Errorf("rect %v outside block %v", rect, dst.rect)
	case dst.rect.Empty():
		return fmt.Errorf("receive into empty block %v", dst.rect)
	case dst.sealed:
		return fmt.Errorf("%w: block %v is sealed, a message or move already views it", errIntoOwner, dst.rect)
	case dst.data != nil:
		return fmt.Errorf("%w: block %v", errIntoOwner, dst.rect)
	}
	dst.views = append(dst.views, recvView{rect, src})
	return nil
}

// readInto writes the consumer block b into dst with b's corner at
// (r0, c0), each view copied straight from its source in arrival order.
// If the views do not exactly partition b — a hole, or an overlap — the
// rectangle is cleared first: an element no receive wrote reads +0, and
// where receives overlap the later one wins.
func (b *block) readInto(dst *matrix.Matrix, r0, c0 int) {
	if !b.partitioned() {
		for i := r0; i < r0+b.rect.R1-b.rect.R0; i++ {
			clear(dst.Data[i*dst.Cols+c0:][:b.rect.C1-b.rect.C0])
		}
	}
	for _, v := range b.views {
		s := v.src.rect
		dst.CopyRect(r0+v.rect.R0-b.rect.R0, c0+v.rect.C0-b.rect.C0, v.src.data,
			v.rect.R0-s.R0, v.rect.R1-s.R0, v.rect.C0-s.C0, v.rect.C1-s.C0)
	}
}

// partitioned reports whether b's views are disjoint and cover it, in O(v²).
func (b *block) partitioned() bool {
	area := 0
	for i, v := range b.views {
		area += v.rect.Bytes()
		for _, w := range b.views[:i] {
			if !intersect(v.rect, w.rect).Empty() {
				return false
			}
		}
	}
	return area == b.rect.Bytes()
}

func intersect(a, b codegen.Rect) codegen.Rect {
	return codegen.Rect{R0: max(a.R0, b.R0), R1: min(a.R1, b.R1), C0: max(a.C0, b.C0), C1: min(a.C1, b.C1)}
}

// halt classifies a stopped run and builds its HaltError: processor loss
// when a fail-stop death is implicated, message loss when a live
// processor waits on a dropped message, plain deadlock otherwise. The
// partial Result rides along for the recovery driver. dropped is nil
// when the run has no fault plan.
func halt(streams *codegen.Streams, pc []int, dead, dropped []bool, res *Result) error {
	isDropped := func(msg int32) bool { return dropped != nil && dropped[msg] }
	for _, c := range res.ProcClock {
		if c > res.Makespan {
			res.Makespan = c
		}
	}
	sentinel := errs.ErrDeadlock
	if len(res.FailedProcs) > 0 {
		sentinel = errs.ErrProcessorLost
	} else {
		for pr, stream := range streams.PerProc {
			if pc[pr] >= len(stream) {
				continue
			}
			if in := stream[pc[pr]]; in.Op == codegen.Recv && isDropped(in.Msg) {
				sentinel = errs.ErrMessageLost
				break
			}
		}
	}
	var b strings.Builder
	b.WriteString(" blocked processors:")
	for pr, stream := range streams.PerProc {
		if pc[pr] >= len(stream) {
			continue
		}
		if dead != nil && dead[pr] {
			fmt.Fprintf(&b, " P%d@dead(pc %d/%d)", pr, pc[pr], len(stream))
			continue
		}
		switch in := stream[pc[pr]]; in.Op {
		case codegen.Recv:
			if isDropped(in.Msg) {
				fmt.Fprintf(&b, " P%d@recv(%s, dropped)", pr, streams.Tag(in.Msg))
			} else {
				fmt.Fprintf(&b, " P%d@recv(%s)", pr, streams.Tag(in.Msg))
			}
		case codegen.Exec:
			fmt.Fprintf(&b, " P%d@exec(node %d)", pr, in.Node)
		default:
			fmt.Fprintf(&b, " P%d@codegen.%v", pr, in.Op)
		}
	}
	return &HaltError{
		Sentinel: sentinel,
		Failed:   append([]int(nil), res.FailedProcs...),
		Blocked:  b.String(),
		Partial:  res,
	}
}

// Gather reassembles the named array from the producing node's blocks
// across all processor stores, for verification.
func (r *Result) Gather(array string) (*matrix.Matrix, error) {
	producer, ok := r.p.Producer(array)
	if !ok {
		return nil, fmt.Errorf("sim: unknown array %q", array)
	}
	arr := r.p.Arrays[array]
	out := matrix.New(arr.Rows, arr.Cols)
	covered := 0
	// Deterministic iteration over processors.
	for pr := 0; pr < len(r.stores); pr++ {
		b := r.stores[pr][producer]
		if b == nil || b.data == nil {
			continue
		}
		out.SetBlock(b.rect.R0, b.rect.C0, b.data)
		covered += (b.rect.R1 - b.rect.R0) * (b.rect.C1 - b.rect.C0)
	}
	if covered != arr.Rows*arr.Cols {
		return nil, fmt.Errorf("sim: array %q blocks cover %d of %d elements", array, covered, arr.Rows*arr.Cols)
	}
	return out, nil
}

// Verify checks every simulated array of p against its sequential
// reference run, returning the worst absolute deviation.
func Verify(p *prog.Program, res *Result) (float64, error) {
	ref, err := p.ReferenceRun()
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for name := range p.Arrays {
		got, err := res.Gather(name)
		if err != nil {
			return 0, err
		}
		d, err := matrix.MaxAbsDiff(got, ref[name])
		if err != nil {
			return 0, err
		}
		if d > worst {
			worst = d
		}
	}
	return worst, nil
}

// SalvageArray reassembles the named array from surviving processors'
// blocks. It succeeds only when the producing node's barrier executed
// and every element is covered by a non-failed processor's store — the
// recovery driver's test for "restore this array" versus "recompute its
// producer".
func (r *Result) SalvageArray(array string) (*matrix.Matrix, bool) {
	producer, ok := r.p.Producer(array)
	if !ok || !r.NodeDone[producer] {
		return nil, false
	}
	failed := map[int]bool{}
	for _, pr := range r.FailedProcs {
		failed[pr] = true
	}
	arr := r.p.Arrays[array]
	out := matrix.New(arr.Rows, arr.Cols)
	covered := 0
	for pr := 0; pr < len(r.stores); pr++ {
		if failed[pr] {
			continue
		}
		b := r.stores[pr][producer]
		if b == nil || b.data == nil {
			continue
		}
		out.SetBlock(b.rect.R0, b.rect.C0, b.data)
		covered += (b.rect.R1 - b.rect.R0) * (b.rect.C1 - b.rect.C0)
	}
	if covered != arr.Rows*arr.Cols {
		return nil, false
	}
	return out, true
}
