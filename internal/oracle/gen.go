package oracle

import (
	"math"

	"paradigm/internal/mdg"
)

// --- Deterministic random source ------------------------------------------

// rng is a splitmix64 generator: tiny, seedable, and independent of
// math/rand so oracle probe sequences never shift under Go releases.
type rng struct{ s uint64 }

// newRNG seeds a generator. Seed 0 is remapped so the stream never
// degenerates to the fixed point of splitmix64's zero orbit start.
func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

// next returns the next 64 random bits.
func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// --- Random small-MDG generator -------------------------------------------

// GenOptions shapes RandomGraph's output. The zero value produces the
// differential-suite defaults: up to 6 nodes, 1D/2D transfers only.
type GenOptions struct {
	// MaxNodes bounds the node count (default 6, the largest size the
	// exact references stay tractable at).
	MaxNodes int
	// GridKinds admits the G2L/L2G/G2G extension kinds alongside 1D/2D.
	GridKinds bool
	// EdgeProb is the probability of an edge i->j for i < j (default 0.5).
	EdgeProb float64
}

func (o GenOptions) withDefaults() GenOptions {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 6
	}
	if o.EdgeProb <= 0 || o.EdgeProb > 1 {
		o.EdgeProb = 0.5
	}
	return o
}

// RandomGraph deterministically generates a small random valid MDG from a
// seed: 1..MaxNodes nodes with Amdahl parameters spread over realistic
// ranges (α ∈ [0.02, 0.9], τ ∈ [1ms, 1s]), forward edges i -> j (i < j,
// so the graph is a DAG by construction) carrying one or two transfers.
// The same seed always yields the same graph.
func RandomGraph(seed uint64, o GenOptions) *mdg.Graph {
	o = o.withDefaults()
	r := newRNG(seed)
	var g mdg.Graph
	n := 1 + r.intn(o.MaxNodes)
	for i := 0; i < n; i++ {
		g.AddNode(mdg.Node{
			Name:  nodeName(i),
			Alpha: 0.02 + 0.88*r.float(),
			Tau:   1e-3 * math.Pow(10, 3*r.float()), // 1ms .. 1s, log-uniform
		})
	}
	kinds := []mdg.TransferKind{mdg.Transfer1D, mdg.Transfer2D}
	if o.GridKinds {
		kinds = append(kinds, mdg.TransferG2L, mdg.TransferL2G, mdg.TransferG2G)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.float() >= o.EdgeProb {
				continue
			}
			nt := 1 + r.intn(2)
			trs := make([]mdg.Transfer, nt)
			for k := range trs {
				trs[k] = mdg.Transfer{
					// 256B .. ~1MB, log-uniform in powers of two.
					Bytes: 256 << r.intn(13),
					Kind:  kinds[r.intn(len(kinds))],
				}
			}
			g.AddEdge(mdg.NodeID(i), mdg.NodeID(j), trs...)
		}
	}
	return &g
}

// PlantedGraph deterministically generates a small MDG with a planted
// automorphism: two or three copies of a random block — equal α/τ, equal
// internal edges and transfers — optionally fed by a shared source and
// drained into a shared sink, under a random node numbering. Parameters
// are drawn like RandomGraph's; blocks shrink (and the shared nodes drop)
// until the graph fits in MaxNodes, so the brute-force references still
// apply. The allocator solves such graphs over their orbits (internal/
// alloc), and these are the instances that tell the reduced program from
// the full one.
func PlantedGraph(seed uint64, o GenOptions) *mdg.Graph {
	o = o.withDefaults()
	r := newRNG(seed)
	copies, src, sink, h := 2+r.intn(2), r.intn(2), r.intn(2), 1+r.intn(3)
	for copies*h+src+sink > max(o.MaxNodes, 2) {
		switch {
		case h > 1:
			h--
		case sink > 0:
			sink = 0
		case src > 0:
			src = 0
		default:
			copies--
		}
	}
	kinds := []mdg.TransferKind{mdg.Transfer1D, mdg.Transfer2D}
	if o.GridKinds {
		kinds = append(kinds, mdg.TransferG2L, mdg.TransferL2G, mdg.TransferG2G)
	}
	node := func() mdg.Node {
		return mdg.Node{Alpha: 0.02 + 0.88*r.float(), Tau: 1e-3 * math.Pow(10, 3*r.float())}
	}
	transfers := func() []mdg.Transfer {
		trs := make([]mdg.Transfer, 1+r.intn(2))
		for k := range trs {
			trs[k] = mdg.Transfer{Bytes: 256 << r.intn(13), Kind: kinds[r.intn(len(kinds))]}
		}
		return trs
	}

	// Before renumbering: the shared source, the copies block by block,
	// the shared sink.
	n := copies*h + src + sink
	g := mdg.Graph{Nodes: make([]mdg.Node, n)}
	first := func(c int) int { return src + c*h }
	s, t := mdg.NodeID(0), mdg.NodeID(n-1)
	if src == 1 {
		g.Nodes[s] = node()
	}
	if sink == 1 {
		g.Nodes[t] = node()
	}
	for i := 0; i < h; i++ {
		nd := node()
		for c := 0; c < copies; c++ {
			g.Nodes[first(c)+i] = nd
		}
	}
	for i := range g.Nodes {
		g.Nodes[i].Name = nodeName(i)
	}
	edge := func(from, to func(c int) mdg.NodeID) {
		if r.float() >= o.EdgeProb {
			return
		}
		trs := transfers()
		for c := 0; c < copies; c++ {
			g.AddEdge(from(c), to(c), trs...)
		}
	}
	block := func(i int) func(int) mdg.NodeID {
		return func(c int) mdg.NodeID { return mdg.NodeID(first(c) + i) }
	}
	for i := 0; i < h; i++ {
		for j := i + 1; j < h; j++ {
			edge(block(i), block(j))
		}
		if src == 1 {
			edge(func(int) mdg.NodeID { return s }, block(i))
		}
		if sink == 1 {
			edge(block(i), func(int) mdg.NodeID { return t })
		}
	}
	out, err := g.Relabel(RandomPerm(r.next(), n))
	if err != nil {
		panic(err) // unreachable: RandomPerm is a permutation of [0, n)
	}
	return out
}

// nodeName labels generated nodes n0, n1, ...
func nodeName(i int) string {
	return "n" + string(rune('0'+i%10))
}

// --- Total fuzz decoders ---------------------------------------------------
//
// The native fuzz targets receive arbitrary byte strings. These decoders
// are total: every input maps to either (valid structure, true) or
// (_, false); they never panic, so the fuzzer explores the solver and
// scheduler semantics rather than the decoder's.

// DecodeGraph interprets a fuzz byte string as a small MDG plus a system
// size. Layout (all bytes, consumed in order; short inputs are rejected):
//
//	[0]    node count n, mapped to 1..6
//	[1]    procs, mapped to {2,4,6,8,16}
//	[2..]  per node: alpha byte, tau byte
//	[...]  per (i,j) pair i<j: presence byte, kind byte, size byte
//
// The decoded graph is always a valid DAG (forward edges only, costs in
// range), so a decode success followed by a Validate failure is itself an
// oracle finding.
func DecodeGraph(data []byte) (*mdg.Graph, int, bool) {
	if len(data) < 2 {
		return nil, 0, false
	}
	n := 1 + int(data[0])%6
	procsChoices := []int{2, 4, 6, 8, 16}
	procs := procsChoices[int(data[1])%len(procsChoices)]
	pos := 2
	need := func(k int) bool { return pos+k <= len(data) }
	if !need(2 * n) {
		return nil, 0, false
	}
	var g mdg.Graph
	for i := 0; i < n; i++ {
		alpha := float64(data[pos]) / 255 // [0, 1]
		tau := 1e-3 * (1 + float64(data[pos+1]))
		pos += 2
		g.AddNode(mdg.Node{Name: nodeName(i), Alpha: alpha, Tau: tau})
	}
	kinds := []mdg.TransferKind{
		mdg.Transfer1D, mdg.Transfer2D, mdg.TransferG2L, mdg.TransferL2G, mdg.TransferG2G,
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !need(3) {
				return &g, procs, true // remaining pairs absent
			}
			present := data[pos]&1 == 1
			kind := kinds[int(data[pos+1])%len(kinds)]
			bytes := 64 << (int(data[pos+2]) % 15)
			pos += 3
			if present {
				g.AddEdge(mdg.NodeID(i), mdg.NodeID(j), mdg.Transfer{Bytes: bytes, Kind: kind})
			}
		}
	}
	return &g, procs, true
}

// DecodeAlloc interprets the tail of a fuzz byte string as an integer
// allocation for n nodes on a procs-processor system: one byte per node,
// mapped into [1, procs]. Returns false when data is too short.
func DecodeAlloc(data []byte, n, procs int) ([]int, bool) {
	if len(data) < n {
		return nil, false
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = 1 + int(data[i])%procs
	}
	return out, true
}
