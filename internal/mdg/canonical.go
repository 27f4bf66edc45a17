// Canonical form: a relabel-invariant ordering and hash of an MDG.
//
// The allocator's warm-start cache (internal/alloccache) must recognize
// that two MDGs which differ only in node numbering describe the same
// convex program — Relabel preserves every cost (the metamorphic relation
// PR 4 proves), so a solved allocation for one is a solved allocation for
// the other, permuted. CanonicalPerm computes a permutation into a
// canonical node order from the cost-relevant content alone (Amdahl α/τ,
// edge transfers, graph structure; names and metadata carry no cost and
// are ignored), and CanonicalHash digests the canonicalized graph.
//
// The ordering is Weisfeiler-Lehman color refinement over content
// signatures, with sequential individualization when refinement leaves
// tied classes. Ties after refinement mean the nodes are (in every case
// that arises from real programs, whose α/τ are distinct floats)
// automorphic, so individualizing any member yields the same canonical
// serialization. A WL collision between non-automorphic nodes would at
// worst canonicalize two isomorphic graphs differently — a cache miss,
// never a false hit, because the hash covers the full canonical structure.
package mdg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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
	sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
	for _, v := range vs {
		h = combine(h, v)
	}
	return h
}

// transferSig hashes one edge's transfer multiset.
func transferSig(trs []Transfer) uint64 {
	sigs := make([]uint64, len(trs))
	for i, tr := range trs {
		sigs[i] = combine(combine(0x7472616e73666572, uint64(tr.Bytes)), uint64(tr.Kind))
	}
	return combineSorted(0xedfe, sigs)
}

// CanonicalPerm computes a relabel-invariant permutation of g: perm[i] is
// the canonical index of node i, suitable for g.Relabel(perm). Two graphs
// equal up to node renumbering canonicalize to byte-identical Relabel
// outputs (modulo the cost-free Name/Meta fields) whenever refinement
// fully separates the nodes — which the distinct fitted α/τ of real
// programs guarantee in practice.
func (g *Graph) CanonicalPerm() ([]NodeID, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := len(g.Nodes)
	sig := make([]uint64, n)
	for i, nd := range g.Nodes {
		sig[i] = combine(combine(0x6e6f6465, math.Float64bits(nd.Alpha)), math.Float64bits(nd.Tau))
	}
	esig := make(map[[2]NodeID]uint64, len(g.Edges))
	for _, e := range g.Edges {
		esig[[2]NodeID{e.From, e.To}] = transferSig(e.Transfers)
	}

	refine := func() {
		next := make([]uint64, n)
		var scratch []uint64
		for round := 0; round <= n; round++ {
			classes := countDistinct(sig)
			for i := 0; i < n; i++ {
				id := NodeID(i)
				h := combine(0x726f756e64, sig[i])
				scratch = scratch[:0]
				for _, m := range g.Preds(id) {
					scratch = append(scratch, combine(sig[m], esig[[2]NodeID{m, id}]))
				}
				h = combine(h, combineSorted(0x696e, scratch))
				scratch = scratch[:0]
				for _, s := range g.Succs(id) {
					scratch = append(scratch, combine(sig[s], esig[[2]NodeID{id, s}]))
				}
				next[i] = combine(h, combineSorted(0x6f7574, scratch))
			}
			copy(sig, next)
			if c := countDistinct(sig); c == n || c == classes {
				return
			}
		}
	}

	refine()
	// Individualize while refinement leaves tied classes: distinguish one
	// member of the smallest-signature tie class and re-refine. Tied nodes
	// are automorphic in practice, so the choice of member cannot change
	// the canonical serialization; n rounds always terminate.
	for round := 0; round < n && countDistinct(sig) < n; round++ {
		dup := findSmallestDuplicate(sig)
		for i := 0; i < n; i++ {
			if sig[i] == dup {
				sig[i] = combine(sig[i], 0x696e646976) // individualize
				break
			}
		}
		refine()
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sig[order[a]] < sig[order[b]] })
	perm := make([]NodeID, n)
	for rank, orig := range order {
		perm[orig] = NodeID(rank)
	}
	return perm, nil
}

func countDistinct(sig []uint64) int {
	seen := make(map[uint64]struct{}, len(sig))
	for _, s := range sig {
		seen[s] = struct{}{}
	}
	return len(seen)
}

func findSmallestDuplicate(sig []uint64) uint64 {
	counts := make(map[uint64]int, len(sig))
	for _, s := range sig {
		counts[s]++
	}
	best := uint64(0)
	found := false
	for s, c := range counts {
		if c > 1 && (!found || s < best) {
			best, found = s, true
		}
	}
	return best
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
