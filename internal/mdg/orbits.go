// Automorphism orbits: the symmetry classes of an MDG that the allocator
// solves once (internal/alloc, DESIGN.md §3, "Solving over orbits").
//
// An automorphism is a node permutation that preserves every node's α/τ
// bits, the edge set, and each edge's transfer multiset: it maps the
// convex program of Section 2 onto itself. Color refinement (the refiner
// CanonicalPerm runs) proposes the classes, but refinement alone is not a
// proof — two non-automorphic nodes can share a color — so a pair is
// joined only through a permutation that has been checked. For each
// proposed pair (u, v), u and v are individualized in two copies of the
// refined coloring, refined in lockstep and discretized the same way; the
// matching of the two discrete colorings is a candidate, kept only when
// it verifies as an automorphism. The partition is the orbits of the
// group the kept candidates generate, so it is never coarser than the
// true orbits, whatever refinement proposed.
package mdg

import (
	"cmp"
	"math"
	"slices"
)

// orbitMemo is one memoised Orbits answer, keyed like canonMemo.
type orbitMemo struct {
	gen, sum uint64
	orbit    []int
}

// Orbits returns g's automorphism orbits: orbit[i] is the orbit of node
// i, orbits numbered from 0 in order of their smallest node ID. Nodes
// share an orbit only when verified automorphisms carry one onto the
// other, so every orbit's members are interchangeable in every cost the
// model reads. Asymmetric graphs get one orbit per node, orbit[i] = i.
//
// The answer is deterministic and memoised on the graph beside
// CanonicalHash, under the same mutation count and content checksum. The
// returned slice is shared; callers must not modify it.
func (g *Graph) Orbits() ([]int, error) {
	gen, sum := g.gen, g.contentSum()
	if m := g.orbs.Load(); m != nil && m.gen == gen && m.sum == sum {
		return m.orbit, nil
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	orbit, _ := g.orbits()
	g.orbs.Store(&orbitMemo{gen: gen, sum: sum, orbit: orbit})
	return orbit, nil
}

// orbits computes the partition and the verified automorphisms that
// generate it. Within each color class, every member v not yet joined to
// a smaller one is tried against the smallest member of each set formed
// so far, until a candidate verifies. Where classes are orbits — every
// program the repo builds — the first try of each merge succeeds.
func (g *Graph) orbits() (orbit []int, gens [][]int32) {
	n := len(g.Nodes)
	r := newRefiner(g)
	sigs := make([]uint64, 4*n)
	base, a, b, sortedA := sigs[:n], sigs[n:2*n], sigs[2*n:3*n], sigs[3*n:]
	r.initial(g, base)
	r.refine(base)

	ints := make([]int32, 5*n)
	parent, perm, byColor := ints[:n], ints[n:2*n], ints[2*n:3*n]
	orderA, orderB := ints[3*n:4*n], ints[4*n:]
	for i := range parent {
		parent[i], byColor[i] = int32(i), int32(i)
	}
	slices.SortStableFunc(byColor, func(x, y int32) int { return cmp.Compare(base[x], base[y]) })
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && base[byColor[hi]] == base[byColor[lo]] {
			hi++
		}
		class := byColor[lo:hi]
		for k, v := range class {
			if find(parent, v) != v {
				continue // already joined to a smaller member
			}
			for _, u := range class[:k] {
				if find(parent, u) != u || !r.candidate(base, a, b, sortedA, u, v, perm, orderA, orderB) || !g.isAutomorphism(perm) {
					continue
				}
				gens = append(gens, slices.Clone(perm))
				for i, j := range perm {
					union(parent, int32(i), j)
				}
				break
			}
		}
		lo = hi
	}

	// union keeps the smallest member as root, so walking the nodes in
	// ascending order meets each orbit's root first.
	orbit = make([]int, n)
	k := 0
	for i := range orbit {
		if root := find(parent, int32(i)); root == int32(i) {
			orbit[i] = k
			k++
		} else {
			orbit[i] = orbit[root]
		}
	}
	return orbit, gens
}

// candidate individualizes u in a copy a of the refined coloring base and
// v in a copy b, then refines and discretizes both in lockstep, giving up
// as soon as their color multisets differ. On success perm maps each node
// of a to the node of b with its color: the permutation that carries u to
// v if any automorphism extending the choices does.
func (r *refiner) candidate(base, a, b, sortedA []uint64, u, v int32, perm, orderA, orderB []int32) bool {
	copy(a, base)
	copy(b, base)
	a[u] = combine(a[u], individualizeSig)
	b[v] = combine(b[v], individualizeSig)
	for round := 0; ; round++ {
		classes := r.refine(a)
		copy(sortedA, r.sorted)
		if r.refine(b) != classes || !slices.Equal(sortedA, r.sorted) {
			return false
		}
		if classes == r.n {
			break
		}
		if round == r.n {
			return false
		}
		dup := r.smallestDuplicate()
		individualize(a, dup)
		individualize(b, dup)
	}
	for i := range orderA {
		orderA[i], orderB[i] = int32(i), int32(i)
	}
	slices.SortFunc(orderA, func(x, y int32) int { return cmp.Compare(a[x], a[y]) })
	slices.SortFunc(orderB, func(x, y int32) int { return cmp.Compare(b[x], b[y]) })
	for k, i := range orderA {
		perm[i] = orderB[k]
	}
	return true
}

// isAutomorphism reports whether the bijection perm preserves α/τ bits,
// the edge set and every edge's transfer multiset.
func (g *Graph) isAutomorphism(perm []int32) bool {
	for i, nd := range g.Nodes {
		im := &g.Nodes[perm[i]]
		if math.Float64bits(nd.Alpha) != math.Float64bits(im.Alpha) || math.Float64bits(nd.Tau) != math.Float64bits(im.Tau) {
			return false
		}
	}
	for _, e := range g.Edges {
		im, ok := g.EdgeBetween(NodeID(perm[e.From]), NodeID(perm[e.To]))
		if !ok || !sameTransfers(e.Transfers, im.Transfers) {
			return false
		}
	}
	return true
}

// sameTransfers compares two transfer lists as multisets.
func sameTransfers(a, b []Transfer) bool {
	if len(a) != len(b) {
		return false
	}
	for _, t := range a {
		na, nb := 0, 0
		for k := range a {
			if a[k] == t {
				na++
			}
			if b[k] == t {
				nb++
			}
		}
		if na != nb {
			return false
		}
	}
	return true
}

// find returns the root of x's set, halving the path as it goes.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// union merges the sets of x and y under the smaller root.
func union(parent []int32, x, y int32) {
	x, y = find(parent, x), find(parent, y)
	if x > y {
		x, y = y, x
	}
	parent[y] = x
}
