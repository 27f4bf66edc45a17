package mdg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// plantedGraph decodes a fuzz input into a DAG of at most 7 nodes with a
// planted automorphism: 2 or 3 copies of a random block H, optionally fed
// by a shared source and drained into a shared sink, under a random node
// numbering. α/τ come from a four-value palette, so color refinement
// meets accidental ties as well as the planted ones; bit 2 of the flags
// byte perturbs one copy, so the planted symmetry is then a near miss the
// verifier must reject.
func plantedGraph(data []byte) *Graph {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	shape, flags := next(), next()
	copies := 2 + int(shape/3)%2
	src, sink := int(flags&1), int(flags>>1&1)
	h := 1 + int(shape%3)
	for copies*h+src+sink > 7 {
		h--
	}
	palette := func(b byte) Node {
		return Node{Alpha: 0.1 + 0.2*float64(b%4), Tau: 1 + float64(b>>2%4)}
	}
	transfer := func(b byte) []Transfer {
		if b&1 == 0 {
			return nil
		}
		return []Transfer{{Bytes: 256 << (b >> 1 % 3), Kind: TransferKind(b >> 3 % 5)}}
	}

	// Node IDs before relabeling: the shared source, the copies block by
	// block, the shared sink.
	n := copies*h + src + sink
	g := &Graph{Nodes: make([]Node, n)}
	first := func(c int) int { return src + c*h }
	s, t := NodeID(0), NodeID(n-1)
	if src == 1 {
		g.Nodes[s] = palette(next())
	}
	if sink == 1 {
		g.Nodes[t] = palette(next())
	}
	for i := 0; i < h; i++ {
		nd := palette(next())
		for c := 0; c < copies; c++ {
			g.Nodes[first(c)+i] = nd
		}
	}
	if flags&4 != 0 {
		g.Nodes[first(copies-1)].Tau *= 1.5
	}
	addEdges := func(from, to func(c int) NodeID, trs []Transfer) {
		for c := 0; c < copies; c++ {
			g.AddEdge(from(c), to(c), trs...)
		}
	}
	for i := 0; i < h; i++ {
		node := func(i int) func(c int) NodeID { return func(c int) NodeID { return NodeID(first(c) + i) } }
		for j := i + 1; j < h; j++ {
			if b := next(); b&0x80 != 0 {
				addEdges(node(i), node(j), transfer(b))
			}
		}
		if b := next(); src == 1 && b&0x80 != 0 {
			addEdges(func(int) NodeID { return s }, node(i), transfer(b))
		}
		if b := next(); sink == 1 && b&0x80 != 0 {
			addEdges(node(i), func(int) NodeID { return t }, transfer(b))
		}
	}
	if b := next(); src == 1 && sink == 1 && b&0x80 != 0 {
		g.AddEdge(s, t, transfer(b)...)
	}

	perm := make([]NodeID, n)
	for i := range perm {
		perm[i] = NodeID(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next()) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out, err := g.Relabel(perm)
	if err != nil {
		panic(err)
	}
	return out
}

// bruteAutomorphisms enumerates every permutation of g's nodes and keeps
// those that preserve α/τ bits and the edges with their transfer
// multisets, by a check written independently of isAutomorphism.
func bruteAutomorphisms(g *Graph) [][]int {
	n := len(g.Nodes)
	type key [2]int
	edges := map[key][]Transfer{}
	for _, e := range g.Edges {
		trs := slices.Clone(e.Transfers)
		slices.SortFunc(trs, compareTransfer)
		edges[key{int(e.From), int(e.To)}] = trs
	}
	var out [][]int
	perm := make([]int, n)
	used := make([]bool, n)
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			for _, e := range g.Edges {
				im, ok := edges[key{perm[e.From], perm[e.To]}]
				if !ok || !slices.Equal(im, edges[key{int(e.From), int(e.To)}]) {
					return
				}
			}
			out = append(out, slices.Clone(perm))
			return
		}
		for j := 0; j < n; j++ {
			a, b := g.Nodes[i], g.Nodes[j]
			if used[j] || math.Float64bits(a.Alpha) != math.Float64bits(b.Alpha) || math.Float64bits(a.Tau) != math.Float64bits(b.Tau) {
				continue
			}
			used[j], perm[i] = true, j
			walk(i + 1)
			used[j] = false
		}
	}
	walk(0)
	return out
}

func compareTransfer(a, b Transfer) int {
	if a.Bytes != b.Bytes {
		return a.Bytes - b.Bytes
	}
	return int(a.Kind) - int(b.Kind)
}

// trueOrbits is the orbit partition of the full automorphism group,
// numbered by smallest member like Orbits.
func trueOrbits(n int, auts [][]int) []int {
	orbit := make([]int, n)
	for i := range orbit {
		orbit[i] = -1
	}
	k := 0
	for i := range orbit {
		if orbit[i] >= 0 {
			continue
		}
		for _, a := range auts {
			orbit[a[i]] = k
		}
		k++
	}
	return orbit
}

// checkOrbits holds Orbits to brute force on one small graph: nodes it
// merges are in one true orbit, every kept generator is an automorphism
// and maps each orbit onto itself, and orbits are numbered by smallest
// member. It reports whether the partition is also complete.
func checkOrbits(t *testing.T, g *Graph) bool {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("decoded graph is invalid: %v", err)
	}
	orbit, gens := g.orbits()
	memo, err := g.Orbits()
	if err != nil || !slices.Equal(memo, orbit) {
		t.Fatalf("Orbits() = %v, %v; orbits() = %v", memo, err, orbit)
	}
	auts := bruteAutomorphisms(g)
	truth := trueOrbits(len(g.Nodes), auts)
	for i := range orbit {
		for j := range orbit {
			if orbit[i] == orbit[j] && truth[i] != truth[j] {
				t.Fatalf("nodes %d and %d share orbit %d, but no automorphism maps one to the other (graph %+v)", i, j, orbit[i], g)
			}
		}
	}
	for _, gen := range gens {
		p := make([]int, len(gen))
		for i, v := range gen {
			p[i] = int(v)
		}
		if !slices.ContainsFunc(auts, func(a []int) bool { return slices.Equal(a, p) }) {
			t.Fatalf("kept generator %v is not an automorphism", p)
		}
		for i, v := range gen {
			if orbit[i] != orbit[v] {
				t.Fatalf("generator %v maps node %d out of its orbit", p, i)
			}
		}
	}
	next := 0
	for _, c := range orbit {
		if c > next {
			t.Fatalf("orbits %v not numbered by smallest member", orbit)
		}
		if c == next {
			next++
		}
	}
	return slices.Equal(orbit, truth)
}

// FuzzOrbits: on small DAGs with planted (and near-planted)
// automorphisms, every pair Orbits merges is joined by an automorphism
// brute force confirms, and every orbit is closed under the kept
// generators. The seeds are committed under testdata/fuzz/FuzzOrbits.
func FuzzOrbits(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOrbits(t, plantedGraph(data))
	})
}

// TestOrbitsOnPlantedGraphs runs the fuzz check over a deterministic
// population and requires the partition to be complete — exactly the
// brute-force orbits — on all but a sliver of it.
func TestOrbitsOnPlantedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const trials = 500
	incomplete := 0
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 24)
		rng.Read(data)
		if !checkOrbits(t, plantedGraph(data)) {
			incomplete++
		}
	}
	if incomplete > 0 {
		t.Errorf("%d of %d planted graphs got a partition finer than their orbits", incomplete, trials)
	}
}

// crFoolingGraph is a DAG color refinement cannot split: every source has
// two out-edges and every sink two in-edges, but the sources and sinks of
// one bipartite 12-cycle are not automorphic to those of two bipartite
// 6-cycles.
func crFoolingGraph() *Graph {
	g := &Graph{}
	for i := 0; i < 24; i++ {
		g.AddNode(Node{Alpha: 0.5, Tau: 1 + float64(i/6%2)}) // sources τ 1, sinks τ 2
	}
	tr := Transfer{Bytes: 1024, Kind: Transfer1D}
	cycle := func(src, sink []NodeID) {
		for k := range src {
			g.AddEdge(src[k], sink[k], tr)
			g.AddEdge(src[k], sink[(k+1)%len(sink)], tr)
		}
	}
	ids := func(lo, hi int) []NodeID {
		var out []NodeID
		for i := lo; i < hi; i++ {
			out = append(out, NodeID(i))
		}
		return out
	}
	cycle(ids(0, 6), ids(6, 12))    // the 12-cycle
	cycle(ids(12, 15), ids(18, 21)) // one 6-cycle
	cycle(ids(15, 18), ids(21, 24)) // the other
	return g
}

func TestOrbitsFinerThanColorClassesWhereRefinementIsFooled(t *testing.T) {
	g := crFoolingGraph()
	classes := g.ColorClasses()
	orbit, err := g.Orbits()
	if err != nil {
		t.Fatal(err)
	}
	if k := slices.Max(classes) + 1; k != 2 {
		t.Fatalf("color refinement found %d classes, want 2 (the graph no longer fools it)", k)
	}
	if k := slices.Max(orbit) + 1; k != 4 {
		t.Fatalf("Orbits found %d orbits (%v), want 4", k, orbit)
	}
	for i := range orbit {
		for j := range orbit {
			if orbit[i] == orbit[j] && classes[i] != classes[j] {
				t.Fatalf("orbits %v are not a refinement of color classes %v", orbit, classes)
			}
		}
	}
}

// TestOrbitsRelabelEquivariant: renumbering the nodes renumbers the
// orbits and nothing else.
func TestOrbitsRelabelEquivariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := []*Graph{crFoolingGraph()}
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 24)
		rng.Read(data)
		graphs = append(graphs, plantedGraph(data))
	}
	for trial, g := range graphs {
		orbit, err := g.Orbits()
		if err != nil {
			t.Fatal(err)
		}
		perm := randomPerm(rng, len(g.Nodes))
		rel, err := g.Relabel(perm)
		if err != nil {
			t.Fatal(err)
		}
		relOrbit, err := rel.Orbits()
		if err != nil {
			t.Fatal(err)
		}
		for i := range orbit {
			for j := range orbit {
				if (orbit[i] == orbit[j]) != (relOrbit[perm[i]] == relOrbit[perm[j]]) {
					t.Fatalf("graph %d: nodes %d, %d share an orbit %v, relabeled %d, %d %v",
						trial, i, j, orbit[i] == orbit[j], perm[i], perm[j], relOrbit[perm[i]] == relOrbit[perm[j]])
				}
			}
		}
	}
}
