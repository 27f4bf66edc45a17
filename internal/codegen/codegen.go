// Package codegen lowers a (program, schedule) pair into true MPMD code:
// one instruction stream per physical processor, mixing data
// redistribution (SEND/RECV/MOVE) with kernel execution (EXEC). This is
// Step 5 of the paper's pipeline — the per-processor programs the authors
// hand-wrote for the CM-5 — generated mechanically.
//
// Stream construction follows the cost model's accounting: a node's
// receives precede its EXEC and the sends to *all* of its successors
// follow it, exactly the decomposition T_i = Σt^R + t^C + Σt^S of
// Section 2. Per-processor instruction order follows the schedule's start
// times, which (for a valid schedule) makes the cross-processor
// dependency graph acyclic — the generated programs cannot deadlock.
package codegen

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"

	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/mdg"
	"paradigm/internal/prog"
	"paradigm/internal/sched"
)

// Rect is a half-open matrix rectangle rows [R0,R1) × cols [C0,C1).
type Rect struct {
	R0, R1, C0, C1 int
}

// Empty reports whether the rectangle has no elements.
func (r Rect) Empty() bool { return r.R0 >= r.R1 || r.C0 >= r.C1 }

// Bytes is the payload size of the rectangle.
func (r Rect) Bytes() int {
	if r.Empty() {
		return 0
	}
	return (r.R1 - r.R0) * (r.C1 - r.C0) * dist.ElemBytes
}

// Op is the operation of an MPMD instruction.
type Op uint8

const (
	// Send transmits the rectangle Payload of instance Src to processor
	// Peer as message Msg.
	Send Op = iota
	// Recv blocks for message Msg from processor Peer and stores its
	// rectangle Payload into instance Dst, whose full local block is Block.
	Recv
	// Move copies the rectangle Payload of instance Src into instance Dst
	// on the same processor (a redistribution overlap that stayed local).
	Move
	// Exec runs node Node's kernel as a barrier across its group.
	Exec
)

// String names the operation.
func (op Op) String() string {
	switch op {
	case Send:
		return "Send"
	case Recv:
		return "Recv"
	case Move:
		return "Move"
	case Exec:
		return "Exec"
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Instr is one MPMD instruction. Which fields it uses depends on Op; the
// ids index the tables of the Streams it belongs to.
type Instr struct {
	Op Op
	// Peer is a Send's destination processor and a Recv's source.
	Peer int32
	// Msg is a Send's or Recv's message: an index into Streams.Messages.
	Msg int32
	// Src is a Send's or Move's source instance, Dst a Recv's or Move's
	// destination instance: indexes into Streams.Instances.
	Src, Dst int32
	// Node is the node an Exec runs.
	Node mdg.NodeID
	// Payload is the rectangle a Send, Recv or Move carries, in the
	// array's global coordinates.
	Payload Rect
	// Block is the destination instance's full local block of a Recv or
	// Move.
	Block Rect
}

// Instance is one array instance in processor-local stores: node Node's
// copy of Array, its output or an input redistributed to it.
type Instance struct {
	Array string
	Node  mdg.NodeID
}

// Message is one point-to-point message: piece Index of the
// redistribution of instance Src toward node Consumer.
type Message struct {
	Src      int32
	Consumer mdg.NodeID
	Index    int32
}

// Streams is the generated MPMD program: one instruction stream per
// processor, and the tables its ids index.
type Streams struct {
	Procs   int
	PerProc [][]Instr
	// Instances lists every array instance; a node's output instance has
	// the node's id, so ids below the node count are outputs.
	Instances []Instance
	// Messages lists every point-to-point message.
	Messages []Message
	// Operands holds each node's operand instances, one per input of its
	// spec, in input order.
	Operands [][]int32
	// Groups holds each node's processor group in slot order: the blocks
	// of its output are placed over Groups[node].
	Groups [][]int
}

// InstanceName formats instance id as "A@3": array A at node 3.
func (s *Streams) InstanceName(id int32) string {
	return string(s.appendInstanceName(make([]byte, 0, 24), id))
}

// appendInstanceName appends InstanceName(id) to buf.
func (s *Streams) appendInstanceName(buf []byte, id int32) []byte {
	in := s.Instances[id]
	buf = append(buf, in.Array...)
	buf = append(buf, '@')
	return strconv.AppendInt(buf, int64(in.Node), 10)
}

// Tag formats message id as "A@3->5#2": piece 2 of the redistribution of
// instance A@3 toward node 5. Tags name messages in events, fault plans
// and diagnostics.
func (s *Streams) Tag(id int32) string {
	m := s.Messages[id]
	buf := s.appendInstanceName(make([]byte, 0, 40), m.Src)
	buf = append(buf, "->"...)
	buf = strconv.AppendInt(buf, int64(m.Consumer), 10)
	buf = append(buf, '#')
	return string(strconv.AppendInt(buf, int64(m.Index), 10))
}

// Stats summarizes the communication volume of the program.
type Stats struct {
	Sends, Recvs, Moves, Execs int
	NetworkBytes               int
	LocalBytes                 int
}

// Stats tallies instruction counts and byte volumes.
func (s *Streams) Stats() Stats {
	var st Stats
	for _, stream := range s.PerProc {
		for _, in := range stream {
			switch in.Op {
			case Send:
				st.Sends++
				st.NetworkBytes += in.Payload.Bytes()
			case Recv:
				st.Recvs++
			case Move:
				st.Moves++
				st.LocalBytes += in.Payload.Bytes()
			case Exec:
				st.Execs++
			}
		}
	}
	return st
}

// PlacementFor builds the block map of an array over a node's processor
// group for any axis, including the grid extension. Block order follows
// the group order: Blocks[slot].Proc == group[slot].
func PlacementFor(arr prog.Array, axis dist.Axis, group []int) (dist.Placement, error) {
	if axis == dist.ByGrid {
		g, err := dist.NewGrid(arr.Rows, arr.Cols, group)
		if err != nil {
			return dist.Placement{}, err
		}
		return g.Placement(), nil
	}
	d, err := dist.New(arr.Rows, arr.Cols, axis, group)
	if err != nil {
		return dist.Placement{}, err
	}
	return d.Placement(), nil
}

// Generate lowers the program under the given schedule. The schedule must
// cover exactly the program's MDG (same node count) and be valid for its
// processor count.
func Generate(p *prog.Program, s *sched.Schedule) (*Streams, error) {
	return GenerateCtx(context.Background(), p, s)
}

// GenerateCtx is Generate with cancellation: ctx is checked once per
// node in the emission loop (each node can emit O(p²) redistribution
// messages, so emission is the long pole on large systems).
func GenerateCtx(ctx context.Context, p *prog.Program, s *sched.Schedule) (*Streams, error) {
	n := p.G.NumNodes()
	if len(s.Entries) != n {
		return nil, fmt.Errorf("codegen: schedule covers %d nodes, program has %d", len(s.Entries), n)
	}
	procs := s.ProcsTotal
	out := &Streams{
		Procs:    procs,
		PerProc:  make([][]Instr, procs),
		Operands: make([][]int32, n),
		Groups:   make([][]int, n),
	}
	inputs := 0
	for i := range n {
		out.Groups[i] = s.Entries[i].Procs
		inputs += len(p.Specs[i].Inputs)
	}
	out.Instances = make([]Instance, n, n+inputs)
	for i := range n {
		out.Instances[i] = Instance{Array: p.Specs[i].Output, Node: mdg.NodeID(i)}
	}
	operands := make([]int32, 0, inputs)

	// Precompute every redistribution: one per distinct (consumer, input
	// array) pair, its messages msgs[lo:hi] and the slot in dst of each
	// one's destination block, slots[lo:hi]; redistribution i fills
	// instance n+i. Sends and local moves are emitted in the *producer's*
	// phase (the model accounts t^S inside T_m), receives in the
	// consumer's (t^R inside T_j).
	type redist struct {
		consumer mdg.NodeID
		producer mdg.NodeID
		dst      []dist.PlacedRect // the consumer's blocks of the array
		lo, hi   int
		firstMsg int32 // message id of its first remote message
	}
	var (
		redists   []redist
		msgs      []dist.Msg
		slots     []int32
		remote    int                         // messages that are not local moves
		srcPlaces = make([]dist.Placement, n) // each producer's, built at its first consumer
		slotOf    = make([]int32, procs)      // the consumer group's slot of a processor
		count     = make([]int, procs)        // instructions per processor
	)
	firstRedist := make([]int, n+1) // consumer ci's redistributions: redists[firstRedist[ci]:firstRedist[ci+1]]
	checkProcs := func(group []int) error {
		for _, proc := range group {
			if proc < 0 || proc >= procs {
				return fmt.Errorf("codegen: processor %d outside [0,%d)", proc, procs)
			}
		}
		return nil
	}
	for ci := 0; ci < n; ci++ {
		firstRedist[ci] = len(redists)
		consumer := mdg.NodeID(ci)
		spec := p.Specs[consumer]
		if spec.Kernel.Op == kernels.OpNone {
			continue
		}
		group := s.Entries[consumer].Procs
		if len(group) == 0 {
			return nil, fmt.Errorf("codegen: node %d has no processors", consumer)
		}
		if err := checkProcs(group); err != nil {
			return nil, err
		}
		for slot, proc := range group {
			slotOf[proc] = int32(slot)
			count[proc]++ // its Exec
		}
		first := len(operands)
	inputs:
		for k, in := range spec.Inputs {
			for j := range k {
				if spec.Inputs[j] == in { // same array used as both operands: one copy
					operands = append(operands, operands[first+j])
					continue inputs
				}
			}
			src, ok := p.Producer(in)
			if !ok {
				return nil, fmt.Errorf("codegen: node %d consumes unproduced array %q", consumer, in)
			}
			arr := p.Arrays[in]
			srcPlace := srcPlaces[src]
			if srcPlace.Blocks == nil {
				if err := checkProcs(s.Entries[src].Procs); err != nil {
					return nil, err
				}
				var err error
				if srcPlace, err = PlacementFor(arr, p.Specs[src].Axis, s.Entries[src].Procs); err != nil {
					return nil, fmt.Errorf("codegen: node %d source dist: %w", consumer, err)
				}
				srcPlaces[src] = srcPlace
			}
			dstPlace, err := PlacementFor(arr, spec.Axis, group)
			if err != nil {
				return nil, fmt.Errorf("codegen: node %d dest dist: %w", consumer, err)
			}
			lo := len(msgs)
			if msgs, err = dist.AppendMessagesBetween(msgs, srcPlace, dstPlace); err != nil {
				return nil, fmt.Errorf("codegen: node %d redistribution of %q: %w", consumer, in, err)
			}
			firstMsg := int32(remote)
			for _, m := range msgs[lo:] {
				slots = append(slots, slotOf[m.To])
				count[m.From]++ // its Send or Move
				if m.From != m.To {
					count[m.To]++ // its Recv
					remote++
				}
			}
			operands = append(operands, int32(len(out.Instances)))
			out.Instances = append(out.Instances, Instance{Array: in, Node: consumer})
			redists = append(redists, redist{consumer: consumer, producer: src, dst: dstPlace.Blocks, lo: lo, hi: len(msgs), firstMsg: firstMsg})
		}
		out.Operands[ci] = operands[first:len(operands):len(operands)]
	}
	firstRedist[n] = len(redists)

	// Remote messages are numbered redistribution by redistribution.
	out.Messages = make([]Message, 0, remote)
	for _, r := range redists {
		for mi, m := range msgs[r.lo:r.hi] {
			if m.From != m.To {
				out.Messages = append(out.Messages, Message{Src: int32(r.producer), Consumer: r.consumer, Index: int32(mi)})
			}
		}
	}

	// A producer's redistributions in consumer order.
	byProducer := make([]int, len(redists))
	firstByProducer := make([]int, n+1)
	for _, r := range redists {
		firstByProducer[r.producer+1]++
	}
	for i := range n {
		firstByProducer[i+1] += firstByProducer[i]
	}
	fill := append([]int(nil), firstByProducer[:n]...)
	for ri, r := range redists {
		byProducer[fill[r.producer]] = ri
		fill[r.producer]++
	}

	// Carve every stream from one array, sized by the counts above.
	total := 0
	for _, c := range count {
		total += c
	}
	arena := make([]Instr, total)
	for pr, c := range count {
		out.PerProc[pr], arena = arena[:0:c], arena[c:]
	}
	emit := func(proc int, in Instr) { out.PerProc[proc] = append(out.PerProc[proc], in) }
	rect := func(m dist.Msg) Rect { return Rect{R0: m.R0, R1: m.R1, C0: m.C0, C1: m.C1} }
	block := func(r redist, mi int) Rect {
		b := r.dst[slots[r.lo+mi]]
		return Rect{R0: b.R0, R1: b.R1, C0: b.C0, C1: b.C1}
	}

	// Process nodes in schedule order so each processor's stream is
	// ordered by start time (ties: node id, matching sched determinism).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(s.Entries[a].Start, s.Entries[b].Start); c != 0 {
			return c
		}
		return a - b
	})
	for _, ni := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		node := mdg.NodeID(ni)
		if p.Specs[node].Kernel.Op == kernels.OpNone {
			continue // dummy START/STOP: no data, no compute
		}

		// Receive phase (t^R side of this node's weight).
		for ri := firstRedist[ni]; ri < firstRedist[ni+1]; ri++ {
			r := redists[ri]
			dst, id := int32(n+ri), r.firstMsg
			for mi, m := range msgs[r.lo:r.hi] {
				if m.From == m.To {
					continue // local move: emitted in the producer phase
				}
				emit(m.To, Instr{Op: Recv, Peer: int32(m.From), Msg: id, Dst: dst, Payload: rect(m), Block: block(r, mi)})
				id++
			}
		}

		// Execute phase: one barrier EXEC per group member.
		for _, proc := range out.Groups[node] {
			emit(proc, Instr{Op: Exec, Node: node})
		}

		// Send phase (t^S side): deliver this node's output toward every
		// consumer, in consumer order.
		for _, ri := range byProducer[firstByProducer[ni]:firstByProducer[ni+1]] {
			r := redists[ri]
			src, dst, id := int32(node), int32(n+ri), r.firstMsg
			for mi, m := range msgs[r.lo:r.hi] {
				if m.From == m.To {
					emit(m.From, Instr{Op: Move, Src: src, Dst: dst, Payload: rect(m), Block: block(r, mi)})
					continue
				}
				emit(m.From, Instr{Op: Send, Peer: int32(m.To), Msg: id, Src: src, Payload: rect(m)})
				id++
			}
		}
	}
	return out, nil
}
