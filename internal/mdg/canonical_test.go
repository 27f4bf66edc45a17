package mdg

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randomTestGraph builds a random DAG with rng-drawn α/τ and transfers.
func randomTestGraph(rng *rand.Rand, n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, Node{
			Name:  "t",
			Alpha: 0.1 + 0.8*rng.Float64(),
			Tau:   1 + 10*rng.Float64(),
		})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				nt := 1 + rng.Intn(2)
				var trs []Transfer
				for k := 0; k < nt; k++ {
					trs = append(trs, Transfer{
						Bytes: 64 << rng.Intn(8),
						Kind:  TransferKind(rng.Intn(5)),
					})
				}
				g.Edges = append(g.Edges, Edge{From: NodeID(i), To: NodeID(j), Transfers: trs})
			}
		}
	}
	return g
}

// randomPerm returns a uniformly random permutation as []NodeID.
func randomPerm(rng *rand.Rand, n int) []NodeID {
	p := make([]NodeID, n)
	for i, v := range rng.Perm(n) {
		p[i] = NodeID(v)
	}
	return p
}

func TestCanonicalHashRelabelInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		g := randomTestGraph(rng, 2+rng.Intn(10))
		h1, perm1, err := g.CanonicalHash()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(perm1) != len(g.Nodes) {
			t.Fatalf("trial %d: perm length %d, want %d", trial, len(perm1), len(g.Nodes))
		}
		rel, err := g.Relabel(randomPerm(rng, len(g.Nodes)))
		if err != nil {
			t.Fatalf("trial %d: relabel: %v", trial, err)
		}
		h2, _, err := rel.CanonicalHash()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if h1 != h2 {
			t.Fatalf("trial %d: canonical hash not relabel-invariant: %s vs %s", trial, h1, h2)
		}
	}
}

func TestCanonicalPermMapsToSameCanonicalGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randomTestGraph(rng, 2+rng.Intn(8))
		_, perm, err := g.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		canonA, err := g.Relabel(perm)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := g.Relabel(randomPerm(rng, len(g.Nodes)))
		if err != nil {
			t.Fatal(err)
		}
		_, perm2, err := rel.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		canonB, err := rel.Relabel(perm2)
		if err != nil {
			t.Fatal(err)
		}
		// Cost-relevant content must agree position-by-position.
		for i := range canonA.Nodes {
			if canonA.Nodes[i].Alpha != canonB.Nodes[i].Alpha || canonA.Nodes[i].Tau != canonB.Nodes[i].Tau {
				t.Fatalf("trial %d: canonical node %d differs", trial, i)
			}
		}
		if len(canonA.Edges) != len(canonB.Edges) {
			t.Fatalf("trial %d: canonical edge counts differ", trial)
		}
		for i := range canonA.Edges {
			if canonA.Edges[i].From != canonB.Edges[i].From || canonA.Edges[i].To != canonB.Edges[i].To {
				t.Fatalf("trial %d: canonical edge %d differs", trial, i)
			}
		}
	}
}

func TestCanonicalHashDistinguishesGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seen := map[string]int{}
	for trial := 0; trial < 60; trial++ {
		g := randomTestGraph(rng, 3+rng.Intn(6))
		h, _, err := g.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[h]; ok {
			t.Fatalf("trial %d collides with trial %d", trial, prev)
		}
		seen[h] = trial
	}
	// Perturbing one α must change the hash.
	g := randomTestGraph(rng, 5)
	h1, _, _ := g.CanonicalHash()
	g.Nodes[2].Alpha *= 1.0000001
	h2, _, _ := g.CanonicalHash()
	if h1 == h2 {
		t.Fatal("alpha perturbation did not change canonical hash")
	}
}

func TestCanonicalHashAutomorphicTies(t *testing.T) {
	// Two identical parallel chains a→b: nodes tie pairwise under
	// refinement; individualization must still produce one canonical form.
	mk := func(order []int) *Graph {
		g := &Graph{Nodes: make([]Node, 4)}
		for _, i := range order {
			_ = i
		}
		for i := 0; i < 4; i++ {
			g.Nodes[i] = Node{Name: "n", Alpha: 0.5, Tau: 2}
		}
		tr := []Transfer{{Bytes: 1024, Kind: Transfer1D}}
		g.Edges = []Edge{
			{From: NodeID(order[0]), To: NodeID(order[1]), Transfers: tr},
			{From: NodeID(order[2]), To: NodeID(order[3]), Transfers: tr},
		}
		return g
	}
	h1, _, err := mk([]int{0, 1, 2, 3}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := mk([]int{2, 3, 0, 1}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	h3, _, err := mk([]int{1, 3, 0, 2}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || h1 != h3 {
		t.Fatalf("automorphic relabelings hash differently: %s / %s / %s", h1, h2, h3)
	}
}

// refCanonicalPerm is CanonicalPerm as it stood before refinement moved
// into the shared refiner (map-based class counts, a signature map for
// edges, sort.Slice): the reference the refactor must reproduce exactly,
// because the canonical hash — and every cache key built on it — is
// derived from the permutation.
func refCanonicalPerm(g *Graph) []NodeID {
	n := len(g.Nodes)
	sig := make([]uint64, n)
	for i, nd := range g.Nodes {
		sig[i] = combine(combine(0x6e6f6465, math.Float64bits(nd.Alpha)), math.Float64bits(nd.Tau))
	}
	esig := make(map[[2]NodeID]uint64, len(g.Edges))
	for _, e := range g.Edges {
		sigs := make([]uint64, len(e.Transfers))
		for i, tr := range e.Transfers {
			sigs[i] = combine(combine(0x7472616e73666572, uint64(tr.Bytes)), uint64(tr.Kind))
		}
		sort.Slice(sigs, func(a, b int) bool { return sigs[a] < sigs[b] })
		h := uint64(0xedfe)
		for _, v := range sigs {
			h = combine(h, v)
		}
		esig[[2]NodeID{e.From, e.To}] = h
	}
	countDistinct := func(sig []uint64) int {
		seen := make(map[uint64]struct{}, len(sig))
		for _, s := range sig {
			seen[s] = struct{}{}
		}
		return len(seen)
	}
	sorted := func(h uint64, vs []uint64) uint64 {
		sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
		for _, v := range vs {
			h = combine(h, v)
		}
		return h
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
				h = combine(h, sorted(0x696e, scratch))
				scratch = scratch[:0]
				for _, s := range g.Succs(id) {
					scratch = append(scratch, combine(sig[s], esig[[2]NodeID{id, s}]))
				}
				next[i] = combine(h, sorted(0x6f7574, scratch))
			}
			copy(sig, next)
			if c := countDistinct(sig); c == n || c == classes {
				return
			}
		}
	}
	refine()
	for round := 0; round < n && countDistinct(sig) < n; round++ {
		counts := map[uint64]int{}
		for _, s := range sig {
			counts[s]++
		}
		dup, found := uint64(0), false
		for s, c := range counts {
			if c > 1 && (!found || s < dup) {
				dup, found = s, true
			}
		}
		for i := 0; i < n; i++ {
			if sig[i] == dup {
				sig[i] = combine(sig[i], 0x696e646976)
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
	return perm
}

// TestCanonicalPermMatchesReference pins the refactored refinement to the
// reference bit for bit, on random graphs and on graphs full of ties.
func TestCanonicalPermMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	graphs := []*Graph{crFoolingGraph()}
	for trial := 0; trial < 200; trial++ {
		graphs = append(graphs, randomTestGraph(rng, 1+rng.Intn(14)))
		data := make([]byte, 24)
		rng.Read(data)
		graphs = append(graphs, plantedGraph(data))
	}
	for trial, g := range graphs {
		got, err := g.CanonicalPerm()
		if err != nil {
			t.Fatal(err)
		}
		if want := refCanonicalPerm(g); !slices.Equal(got, want) {
			t.Fatalf("graph %d: CanonicalPerm %v, reference %v", trial, got, want)
		}
	}
}
