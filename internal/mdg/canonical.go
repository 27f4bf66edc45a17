// Canonical form: a relabel-invariant ordering and hash of an MDG.
//
// The allocation and schedule caches must recognize
// that two MDGs which differ only in node numbering describe the same
// convex program — Relabel preserves every cost (the metamorphic relation
// PR 4 proves), so a solved allocation for one is a solved allocation for
// the other, permuted. CanonicalPerm computes a permutation into a
// canonical node order from the cost-relevant content alone (Amdahl α/τ,
// edge transfers, graph structure; names and metadata carry no cost and
// are ignored), and CanonicalHash digests the canonicalized graph.
//
// The ordering is Weisfeiler-Lehman color refinement over content
// signatures (refiner, shared with Orbits), with sequential
// individualization when refinement leaves tied classes. Orbits checks,
// on every program the repo builds, that the tied classes are exactly the
// automorphism orbits, so individualizing any member yields the same
// canonical serialization. A WL collision between non-automorphic nodes
// would at worst canonicalize two isomorphic graphs differently — a cache
// miss, never a false hit, because the hash covers the full canonical
// structure.
package mdg

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sort"
)

// mix64 is a splitmix64 finalizer: the signature combiner for refinement.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// combine folds v into h order-sensitively.
func combine(h, v uint64) uint64 {
	return mix64(h ^ (v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)))
}

// combineSorted folds a multiset of values into h order-insensitively by
// sorting first (vs is clobbered).
func combineSorted(h uint64, vs []uint64) uint64 {
	slices.Sort(vs)
	for _, v := range vs {
		h = combine(h, v)
	}
	return h
}

// transferSig hashes one edge's transfer multiset.
func transferSig(trs []Transfer) uint64 {
	var buf [4]uint64
	sigs := buf[:0]
	for _, tr := range trs {
		sigs = append(sigs, combine(combine(0x7472616e73666572, uint64(tr.Bytes)), uint64(tr.Kind)))
	}
	return combineSorted(0xedfe, sigs)
}

// individualizeSig is folded into a signature to single its node out.
const individualizeSig = 0x696e646976

// refiner runs color refinement over one graph: its adjacency as flat
// in/out lists with each edge's transfer signature beside the neighbour,
// and the scratch one refinement round needs, so rounds allocate nothing.
type refiner struct {
	n                 int
	inOff, outOff     []int32 // node i's lists are [off[i], off[i+1])
	inNbr, outNbr     []int32
	inSig, outSig     []uint64
	next, nbr, sorted []uint64
}

func newRefiner(g *Graph) *refiner {
	n, m := len(g.Nodes), len(g.Edges)
	ints := make([]int32, 2*(n+1)+2*m)
	sigs := make([]uint64, 2*m+2*n)
	r := &refiner{
		n:      n,
		inOff:  ints[:n+1],
		outOff: ints[n+1 : 2*(n+1)],
		inNbr:  ints[2*(n+1) : 2*(n+1)+m],
		outNbr: ints[2*(n+1)+m:],
		inSig:  sigs[:m],
		outSig: sigs[m : 2*m],
		next:   sigs[2*m : 2*m+n],
		sorted: sigs[2*m+n:],
	}
	for _, e := range g.Edges {
		r.inOff[e.To+1]++
		r.outOff[e.From+1]++
	}
	maxDeg := int32(0)
	for i := 0; i < n; i++ {
		maxDeg = max(maxDeg, r.inOff[i+1], r.outOff[i+1])
		r.inOff[i+1] += r.inOff[i]
		r.outOff[i+1] += r.outOff[i]
	}
	r.nbr = make([]uint64, maxDeg)
	fill := make([]int32, 2*n) // per-node cursors: in-lists, then out-lists
	for _, e := range g.Edges {
		s := transferSig(e.Transfers)
		k := r.inOff[e.To] + fill[e.To]
		fill[e.To]++
		r.inNbr[k], r.inSig[k] = int32(e.From), s
		k = r.outOff[e.From] + fill[n+int(e.From)]
		fill[n+int(e.From)]++
		r.outNbr[k], r.outSig[k] = int32(e.To), s
	}
	return r
}

// initial writes every node's content signature (α/τ bits) into sig.
func (r *refiner) initial(g *Graph, sig []uint64) {
	for i, nd := range g.Nodes {
		sig[i] = combine(combine(0x6e6f6465, math.Float64bits(nd.Alpha)), math.Float64bits(nd.Tau))
	}
}

// distinct counts the distinct values of sig, leaving them sorted in
// r.sorted.
func (r *refiner) distinct(sig []uint64) int {
	s := r.sorted
	copy(s, sig)
	slices.Sort(s)
	c := 0
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			c++
		}
	}
	return c
}

// refine runs refinement rounds on sig until the number of classes stops
// growing (or every node is alone) and returns the class count. A round
// replaces each signature by a hash of itself and the sorted multisets of
// (neighbour signature, edge transfer signature) over its in- and
// out-edges.
func (r *refiner) refine(sig []uint64) int {
	classes := r.distinct(sig)
	for round := 0; round <= r.n; round++ {
		for i := 0; i < r.n; i++ {
			h := combine(0x726f756e64, sig[i])
			nb := r.nbr[:0]
			for k := r.inOff[i]; k < r.inOff[i+1]; k++ {
				nb = append(nb, combine(sig[r.inNbr[k]], r.inSig[k]))
			}
			h = combine(h, combineSorted(0x696e, nb))
			nb = r.nbr[:0]
			for k := r.outOff[i]; k < r.outOff[i+1]; k++ {
				nb = append(nb, combine(sig[r.outNbr[k]], r.outSig[k]))
			}
			r.next[i] = combine(h, combineSorted(0x6f7574, nb))
		}
		copy(sig, r.next)
		c := r.distinct(sig)
		if c == r.n || c == classes {
			return c
		}
		classes = c
	}
	return classes
}

// smallestDuplicate returns the smallest signature shared by two or more
// nodes, reading the sorted copy distinct left behind.
func (r *refiner) smallestDuplicate() uint64 {
	s := r.sorted
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return s[i]
		}
	}
	return 0
}

// individualize singles out the lowest-numbered node whose signature is
// dup.
func individualize(sig []uint64, dup uint64) {
	for i, v := range sig {
		if v == dup {
			sig[i] = combine(v, individualizeSig)
			return
		}
	}
}

// discretize individualizes and re-refines until every node has its own
// signature: each round singles out the lowest-numbered member of the
// smallest tied class, so every round adds a class and n rounds always
// terminate.
func (r *refiner) discretize(sig []uint64, classes int) {
	for round := 0; round < r.n && classes < r.n; round++ {
		individualize(sig, r.smallestDuplicate())
		classes = r.refine(sig)
	}
}

// CanonicalPerm computes a relabel-invariant permutation of g: perm[i] is
// the canonical index of node i, suitable for g.Relabel(perm). Two graphs
// equal up to node renumbering canonicalize to byte-identical Relabel
// outputs (modulo the cost-free Name/Meta fields) whenever the tied
// classes of refinement are automorphism orbits — which Orbits' tests
// check on every program the repo builds.
func (g *Graph) CanonicalPerm() ([]NodeID, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := len(g.Nodes)
	r := newRefiner(g)
	sig := make([]uint64, n)
	r.initial(g, sig)
	r.discretize(sig, r.refine(sig))

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(sig[a], sig[b]) })
	perm := make([]NodeID, n)
	for rank, orig := range order {
		perm[orig] = NodeID(rank)
	}
	return perm, nil
}

// canonMemo is one memoised CanonicalHash answer and the state it was
// computed from.
type canonMemo struct {
	gen, sum uint64
	hash     string
	perm     []NodeID
}

// contentSum is an order-sensitive checksum of every field CanonicalHash
// reads, O(nodes + edges + transfers) with no allocation. Nodes and Edges
// are exported and callers do write them in place (a fitted α, a
// transfer size), which no mutation counter sees; the checksum does.
func (g *Graph) contentSum() uint64 {
	h := combine(uint64(len(g.Nodes)), uint64(len(g.Edges)))
	for _, nd := range g.Nodes {
		h = combine(combine(h, math.Float64bits(nd.Alpha)), math.Float64bits(nd.Tau))
	}
	for _, e := range g.Edges {
		h = combine(combine(combine(h, uint64(e.From)), uint64(e.To)), uint64(len(e.Transfers)))
		for _, tr := range e.Transfers {
			h = combine(combine(h, uint64(tr.Bytes)), uint64(tr.Kind))
		}
	}
	return h
}

// CanonicalHash returns a collision-resistant digest of g's canonical
// form along with the canonicalizing permutation (perm[i] = canonical
// index of node i). The digest covers node count, per-node α/τ bits in
// canonical order, and the canonical edge list with sorted transfer
// multisets — everything the cost model reads, nothing it doesn't.
//
// The answer is memoised on the graph and replayed while the graph is
// unchanged — same mutation count, same content checksum — so a shared,
// frozen program is canonicalized once, not once per job. The returned
// perm is shared; callers must not modify it.
func (g *Graph) CanonicalHash() (string, []NodeID, error) {
	gen, sum := g.gen, g.contentSum()
	if m := g.canon.Load(); m != nil && m.gen == gen && m.sum == sum {
		return m.hash, m.perm, nil
	}
	hash, perm, err := g.canonicalHash()
	if err != nil {
		return "", nil, err
	}
	g.canon.Store(&canonMemo{gen: gen, sum: sum, hash: hash, perm: perm})
	return hash, perm, nil
}

// canonicalHash computes CanonicalHash's answer from scratch.
func (g *Graph) canonicalHash() (string, []NodeID, error) {
	perm, err := g.CanonicalPerm()
	if err != nil {
		return "", nil, err
	}
	canon, err := g.Relabel(perm)
	if err != nil {
		return "", nil, err
	}
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(len(canon.Nodes)))
	for _, nd := range canon.Nodes {
		writeU64(math.Float64bits(nd.Alpha))
		writeU64(math.Float64bits(nd.Tau))
	}
	writeU64(uint64(len(canon.Edges)))
	for _, e := range canon.Edges {
		writeU64(uint64(e.From))
		writeU64(uint64(e.To))
		trs := append([]Transfer(nil), e.Transfers...)
		sort.Slice(trs, func(a, b int) bool {
			if trs[a].Bytes != trs[b].Bytes {
				return trs[a].Bytes < trs[b].Bytes
			}
			return trs[a].Kind < trs[b].Kind
		})
		writeU64(uint64(len(trs)))
		for _, tr := range trs {
			writeU64(uint64(tr.Bytes))
			writeU64(uint64(tr.Kind))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), perm, nil
}
