// Package mdg implements the Macro Dataflow Graph of Section 1.1.
//
// An MDG is a weighted directed acyclic graph whose nodes correspond to
// loop nests of the source program and whose edges are precedence
// constraints. Node weights combine the processing cost of the loop with
// the receiving costs of incoming transfers and the sending costs of
// outgoing transfers; edge weights are the network cost component of the
// transfer between the two loops. The weights depend on the processor
// allocation, so this package stores the *parameters* of the weights —
// Amdahl (α, τ) per node and transfer descriptors per edge — and leaves
// weight evaluation to internal/costmodel.
//
// Following Section 2, a schedulable MDG has a START node preceding all
// nodes and a STOP node succeeding all nodes; EnsureStartStop augments any
// DAG into that form with zero-cost dummy nodes.
package mdg

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"paradigm/internal/errs"
)

// NodeID indexes a node within its Graph.
type NodeID int

// TransferKind names how an array is redistributed along an edge: the
// two regimes of Figure 4 (1D, 2D) and the three grid kinds that extend
// them. Each has one cost declaration in internal/costmodel.
type TransferKind uint8

const (
	// Transfer1D covers ROW2ROW and COL2COL: source and destination
	// distribute the array along the same dimension (Equation 2).
	Transfer1D TransferKind = iota
	// Transfer2D covers ROW2COL and COL2ROW: source and destination
	// distribute along different dimensions (Equation 3).
	Transfer2D
	// The grid kinds below extend the paper's model to blocked 2D
	// distributions (its stated future work; see internal/dist and the
	// extended cost functions in internal/costmodel).
	//
	// TransferG2L: grid-distributed source to linearly distributed
	// destination.
	TransferG2L
	// TransferL2G: linearly distributed source to grid-distributed
	// destination.
	TransferL2G
	// TransferG2G: grid to grid.
	TransferG2G
)

// String renders the transfer kind.
func (k TransferKind) String() string {
	switch k {
	case Transfer1D:
		return "1D"
	case Transfer2D:
		return "2D"
	case TransferG2L:
		return "G2L"
	case TransferL2G:
		return "L2G"
	case TransferG2G:
		return "G2G"
	default:
		return fmt.Sprintf("TransferKind(%d)", uint8(k))
	}
}

// Transfer describes one array moved along an edge.
type Transfer struct {
	// Bytes is the total array length L in bytes.
	Bytes int `json:"bytes"`
	// Kind selects the cost declaration: one of the five TransferKinds.
	Kind TransferKind `json:"kind"`
}

// Node is one loop nest. Alpha and Tau parameterize the Amdahl processing
// cost model of Equation 1: t^C = (α + (1-α)/p)·τ. Dummy START/STOP nodes
// have Tau = 0.
type Node struct {
	Name  string  `json:"name"`
	Alpha float64 `json:"alpha"`
	Tau   float64 `json:"tau"`
	// Meta carries an optional program-level payload (e.g. which kernel
	// and operands the node computes); the scheduler ignores it.
	Meta string `json:"meta,omitempty"`
}

// Edge is a precedence constraint with its data transfers.
type Edge struct {
	From      NodeID     `json:"from"`
	To        NodeID     `json:"to"`
	Transfers []Transfer `json:"transfers,omitempty"`
}

// Graph is a mutable MDG. The zero value is an empty graph ready for use.
// Mutation (AddNode, AddEdge, EnsureStartStop, UnmarshalJSON, writes to
// the exported fields) is not safe for concurrent use, but once
// construction is done any number of goroutines may read the graph
// concurrently — the lazy adjacency lists and the canonical-form memo are
// published atomically — so parallel experiment drivers and the service's
// workers can share one graph across allocator, scheduler and simulator.
type Graph struct {
	Nodes []Node
	Edges []Edge

	// edgeIdx maps (from, to) to the edge's position in Edges. AddEdge
	// extends it in place, so building a graph is linear in its edges;
	// idxEdges is the len(Edges) it covers, and an edge list assigned or
	// appended to behind the graph's back makes the two disagree and the
	// next use rebuild.
	edgeIdx  map[[2]NodeID]int
	idxEdges int
	// preds/succs are derived lazily: adj holds shape() as of their last
	// build (0: never built), so growth of either exported slice
	// invalidates them by itself. mu serializes rebuilds; a reader whose
	// adj matches takes no lock.
	mu           sync.Mutex
	adj          atomic.Uint64
	preds, succs [][]NodeID

	// gen counts mutations through the methods; with a content checksum
	// it keys the canonical-form and orbit memos (canonical.go, orbits.go).
	gen   uint64
	canon atomic.Pointer[canonMemo]
	orbs  atomic.Pointer[orbitMemo]
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// shape packs the node and edge counts into the nonzero value adj is
// compared against.
func (g *Graph) shape() uint64 {
	return uint64(len(g.Nodes))<<32 | uint64(len(g.Edges)) + 1
}

// AddNode appends a node and returns its id.
func (g *Graph) AddNode(n Node) NodeID {
	g.Nodes = append(g.Nodes, n)
	g.gen++
	return NodeID(len(g.Nodes) - 1)
}

// AddEdge appends a precedence edge from -> to carrying the given
// transfers. Adding an edge between the same pair twice merges the
// transfer lists.
func (g *Graph) AddEdge(from, to NodeID, transfers ...Transfer) {
	g.gen++
	idx := g.edgeIndex()
	if i, ok := idx[[2]NodeID{from, to}]; ok {
		g.Edges[i].Transfers = append(g.Edges[i].Transfers, transfers...)
		return
	}
	g.Edges = append(g.Edges, Edge{From: from, To: to, Transfers: append([]Transfer(nil), transfers...)})
	idx[[2]NodeID{from, to}] = len(g.Edges) - 1
	g.idxEdges = len(g.Edges)
}

// edgeIndex returns edgeIdx covering every edge, rebuilding it only when
// Edges changed length outside AddEdge. Mutators call it directly;
// readers reach it through ensureIndex, under mu.
func (g *Graph) edgeIndex() map[[2]NodeID]int {
	if g.edgeIdx == nil || g.idxEdges != len(g.Edges) {
		g.edgeIdx = make(map[[2]NodeID]int, len(g.Edges))
		for i, e := range g.Edges {
			g.edgeIdx[[2]NodeID{e.From, e.To}] = i
		}
		g.idxEdges = len(g.Edges)
	}
	return g.edgeIdx
}

func (g *Graph) ensureIndex() {
	shape := g.shape()
	if g.adj.Load() == shape {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.adj.Load() == shape {
		return
	}
	g.edgeIndex()
	n := len(g.Nodes)
	g.preds = make([][]NodeID, n)
	g.succs = make([][]NodeID, n)
	for _, e := range g.Edges {
		g.succs[e.From] = append(g.succs[e.From], e.To)
		g.preds[e.To] = append(g.preds[e.To], e.From)
	}
	for i := range g.preds {
		sortIDs(g.preds[i])
		sortIDs(g.succs[i])
	}
	g.adj.Store(shape)
}

func sortIDs(ids []NodeID) { slices.Sort(ids) }

// Preds returns the predecessor ids of n in ascending order. The returned
// slice is shared; callers must not modify it.
func (g *Graph) Preds(n NodeID) []NodeID {
	g.ensureIndex()
	return g.preds[n]
}

// Succs returns the successor ids of n in ascending order. The returned
// slice is shared; callers must not modify it.
func (g *Graph) Succs(n NodeID) []NodeID {
	g.ensureIndex()
	return g.succs[n]
}

// EdgeBetween returns the edge from -> to, if present.
func (g *Graph) EdgeBetween(from, to NodeID) (Edge, bool) {
	if i, ok := g.EdgeIndex(from, to); ok {
		return g.Edges[i], true
	}
	return Edge{}, false
}

// EdgeIndex returns the position in Edges of the edge from -> to, if
// present, from the graph's own edge index.
func (g *Graph) EdgeIndex(from, to NodeID) (int, bool) {
	g.ensureIndex()
	i, ok := g.edgeIdx[[2]NodeID{from, to}]
	return i, ok
}

// Validate checks structural invariants: edge endpoints in range, no
// self-loops, no duplicate edges, nonnegative costs, acyclicity, and
// positive transfer sizes. Failures wrap errs.ErrBadGraph (and
// errs.ErrUnsupportedTransfer for an out-of-vocabulary transfer kind),
// so callers anywhere up the stack can dispatch with errors.Is.
func (g *Graph) Validate() error {
	n := len(g.Nodes)
	seen := make(map[[2]NodeID]bool, len(g.Edges))
	for _, e := range g.Edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return fmt.Errorf("mdg: %w: edge %d->%d out of range [0,%d)", errs.ErrBadGraph, e.From, e.To, n)
		}
		if e.From == e.To {
			return fmt.Errorf("mdg: %w: self loop on node %d", errs.ErrBadGraph, e.From)
		}
		k := [2]NodeID{e.From, e.To}
		if seen[k] {
			return fmt.Errorf("mdg: %w: duplicate edge %d->%d", errs.ErrBadGraph, e.From, e.To)
		}
		seen[k] = true
		for _, tr := range e.Transfers {
			if tr.Bytes <= 0 {
				return fmt.Errorf("mdg: %w: edge %d->%d has non-positive transfer size %d", errs.ErrBadGraph, e.From, e.To, tr.Bytes)
			}
			switch tr.Kind {
			case Transfer1D, Transfer2D, TransferG2L, TransferL2G, TransferG2G:
			default:
				return fmt.Errorf("mdg: %w: %w: edge %d->%d has transfer kind %d",
					errs.ErrBadGraph, errs.ErrUnsupportedTransfer, e.From, e.To, tr.Kind)
			}
		}
	}
	for i, nd := range g.Nodes {
		if nd.Alpha < 0 || nd.Alpha > 1 {
			return fmt.Errorf("mdg: %w: node %d (%s) alpha %v outside [0,1]", errs.ErrBadGraph, i, nd.Name, nd.Alpha)
		}
		if nd.Tau < 0 {
			return fmt.Errorf("mdg: %w: node %d (%s) negative tau %v", errs.ErrBadGraph, i, nd.Name, nd.Tau)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return fmt.Errorf("%w: %w", errs.ErrBadGraph, err)
	}
	return nil
}

// ErrCycle reports that the graph is not acyclic.
var ErrCycle = errors.New("mdg: graph contains a cycle")

// TopoOrder returns a deterministic topological order (Kahn's algorithm
// with smallest-id tie-breaking), or ErrCycle.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	g.ensureIndex()
	n := len(g.Nodes)
	indeg := make([]int, n)
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	// Min-heap behaviour via a sorted frontier, order[head:]: each node
	// enters it once, so it never outgrows n; graphs here are small.
	order := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, NodeID(i))
		}
	}
	for head := 0; head < len(order); head++ {
		sortIDs(order[head:])
		for _, s := range g.succs[order[head]] {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// StartStop locates the START and STOP nodes: START is the unique node
// with no predecessors, STOP the unique node with no successors. An error
// is returned if either is not unique (use EnsureStartStop first).
func (g *Graph) StartStop() (start, stop NodeID, err error) {
	g.ensureIndex()
	start, stop = -1, -1
	for i := range g.Nodes {
		if len(g.preds[i]) == 0 {
			if start != -1 {
				return -1, -1, fmt.Errorf("mdg: multiple source nodes (%d and %d); call EnsureStartStop", start, i)
			}
			start = NodeID(i)
		}
		if len(g.succs[i]) == 0 {
			if stop != -1 {
				return -1, -1, fmt.Errorf("mdg: multiple sink nodes (%d and %d); call EnsureStartStop", stop, i)
			}
			stop = NodeID(i)
		}
	}
	if start == -1 || stop == -1 {
		return -1, -1, errors.New("mdg: graph has no source or no sink (empty or cyclic)")
	}
	return start, stop, nil
}

// EnsureStartStop guarantees a unique zero-cost START preceding all
// sources and a unique zero-cost STOP succeeding all sinks, adding dummy
// nodes (with no transfers on their edges) only when needed. It returns
// the START and STOP ids.
func (g *Graph) EnsureStartStop() (start, stop NodeID, err error) {
	if len(g.Nodes) == 0 {
		return -1, -1, errors.New("mdg: empty graph")
	}
	if _, err := g.TopoOrder(); err != nil {
		return -1, -1, err
	}
	g.ensureIndex()
	var sources, sinks []NodeID
	for i := range g.Nodes {
		if len(g.preds[i]) == 0 {
			sources = append(sources, NodeID(i))
		}
		if len(g.succs[i]) == 0 {
			sinks = append(sinks, NodeID(i))
		}
	}
	start = sources[0]
	if len(sources) > 1 || len(g.Nodes) == 1 {
		start = g.AddNode(Node{Name: "START"})
		for _, s := range sources {
			g.AddEdge(start, s)
		}
	}
	stop = sinks[0]
	if len(sinks) > 1 || stop == start {
		stop = g.AddNode(Node{Name: "STOP"})
		for _, s := range sinks {
			if s != stop {
				g.AddEdge(s, stop)
			}
		}
	}
	return start, stop, nil
}

// CriticalPath computes the longest path through the DAG under the given
// node and edge weight functions, returning the finish times y_i of
// Section 2 (y_i = max over preds (y_m + edgeW(m,i)) + nodeW(i)) and the
// overall critical path time (the max finish time).
func (g *Graph) CriticalPath(nodeW func(NodeID) float64, edgeW func(Edge) float64) (y []float64, cp float64, err error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	g.ensureIndex()
	y = make([]float64, len(g.Nodes))
	for _, v := range order {
		est := 0.0
		for _, m := range g.preds[v] {
			e, _ := g.EdgeBetween(m, v)
			if t := y[m] + edgeW(e); t > est {
				est = t
			}
		}
		y[v] = est + nodeW(v)
		if y[v] > cp {
			cp = y[v]
		}
	}
	return y, cp, nil
}

// Relabel returns a copy of g with node i renamed to perm[i]; perm must
// be a permutation of [0, NumNodes). Edges are remapped consistently and
// emitted in ascending (from, to) order so two isomorphic relabelings
// produce identical edge lists. The relation consumers rely on (see
// internal/oracle's metamorphic suite) is that node identity carries no
// cost: any weight evaluation of the relabeled graph under a permuted
// allocation equals the original's.
func (g *Graph) Relabel(perm []NodeID) (*Graph, error) {
	n := len(g.Nodes)
	if len(perm) != n {
		return nil, fmt.Errorf("mdg: %w: permutation has %d entries for %d nodes", errs.ErrBadGraph, len(perm), n)
	}
	seen := make([]bool, n)
	for _, v := range perm {
		if v < 0 || int(v) >= n || seen[v] {
			return nil, fmt.Errorf("mdg: %w: not a permutation of [0,%d)", errs.ErrBadGraph, n)
		}
		seen[v] = true
	}
	out := &Graph{Nodes: make([]Node, n), Edges: make([]Edge, 0, len(g.Edges))}
	for i, nd := range g.Nodes {
		out.Nodes[perm[i]] = nd
	}
	for _, e := range g.Edges {
		out.Edges = append(out.Edges, Edge{
			From:      perm[e.From],
			To:        perm[e.To],
			Transfers: append([]Transfer(nil), e.Transfers...),
		})
	}
	sort.Slice(out.Edges, func(a, b int) bool {
		if out.Edges[a].From != out.Edges[b].From {
			return out.Edges[a].From < out.Edges[b].From
		}
		return out.Edges[a].To < out.Edges[b].To
	})
	return out, nil
}

// DOT renders the graph in Graphviz format with node names and α/τ labels.
func (g *Graph) DOT(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box];\n", title)
	for i, n := range g.Nodes {
		label := n.Name
		if label == "" {
			label = fmt.Sprintf("n%d", i)
		}
		if n.Tau > 0 {
			fmt.Fprintf(&b, "  n%d [label=\"%s\\nα=%.3g τ=%.4gs\"];\n", i, label, n.Alpha, n.Tau)
		} else {
			fmt.Fprintf(&b, "  n%d [label=\"%s\"];\n", i, label)
		}
	}
	for _, e := range g.Edges {
		bytes := 0
		for _, tr := range e.Transfers {
			bytes += tr.Bytes
		}
		if bytes > 0 {
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%dB\"];\n", e.From, e.To, bytes)
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", e.From, e.To)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// jsonGraph is the serialized form.
type jsonGraph struct {
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// MarshalJSON serializes nodes and edges.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonGraph{Nodes: g.Nodes, Edges: g.Edges})
}

// UnmarshalJSON deserializes and validates the graph.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	g.Nodes = jg.Nodes
	g.Edges = jg.Edges
	g.gen++
	g.edgeIdx = nil
	g.adj.Store(0)
	return g.Validate()
}
