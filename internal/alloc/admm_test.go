package alloc

import (
	"math/rand"
	"testing"

	"paradigm/internal/mdg"
	"paradigm/internal/par"
)

// layeredGraph builds a deterministic layered DAG: layers × width nodes,
// each node wired to 1-2 nodes of the next layer.
func layeredGraph(layers, width int, seed int64) *mdg.Graph {
	rng := rand.New(rand.NewSource(seed))
	var g mdg.Graph
	ids := make([][]mdg.NodeID, layers)
	for l := 0; l < layers; l++ {
		ids[l] = make([]mdg.NodeID, width)
		for w := 0; w < width; w++ {
			ids[l][w] = g.AddNode(mdg.Node{
				Alpha: 0.1 + 0.8*rng.Float64(),
				Tau:   1e-3 + 1e-2*rng.Float64(),
			})
		}
	}
	for l := 0; l+1 < layers; l++ {
		for w := 0; w < width; w++ {
			for _, dst := range []int{w, (w + 1) % width}[:1+rng.Intn(2)] {
				g.AddEdge(ids[l][w], ids[l+1][dst], mdg.Transfer{
					Bytes: 256 << rng.Intn(6),
					Kind:  mdg.Transfer1D,
				})
			}
		}
	}
	return &g
}

func TestADMMPartitionCoversAllNodes(t *testing.T) {
	g := layeredGraph(6, 5, 3)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 7} {
		parts := admmPartition(g, order, k)
		covered := make([]bool, g.NumNodes())
		for _, nodes := range parts {
			for i := 1; i < len(nodes); i++ {
				if nodes[i-1] >= nodes[i] {
					t.Fatalf("k=%d: subgraph nodes not strictly ascending: %v", k, nodes)
				}
			}
			for _, v := range nodes {
				covered[v] = true
			}
		}
		for v, ok := range covered {
			if !ok {
				t.Fatalf("k=%d: node %d in no subgraph", k, v)
			}
		}
	}
}

func TestADMMMatchesAnnealOnSmallGraphs(t *testing.T) {
	graphs := map[string]*mdg.Graph{
		"forkJoin": forkJoin(0.9),
		"chain":    chainGraph(),
		"layered":  layeredGraph(4, 3, 5),
	}
	for name, g := range graphs {
		anneal, err := Solve(g, cm5Fit, 16, Options{})
		if err != nil {
			t.Fatal(err)
		}
		admm, err := Solve(g, cm5Fit, 16, Options{Backend: "admm"})
		if err != nil {
			t.Fatalf("%s: admm: %v", name, err)
		}
		if admm.Backend != "admm" {
			t.Fatalf("%s: backend %q", name, admm.Backend)
		}
		if admm.Phi > anneal.Phi*1.02 {
			t.Fatalf("%s: ADMM Φ %v vs anneal Φ %v (ratio %v)", name, admm.Phi, anneal.Phi, admm.Phi/anneal.Phi)
		}
	}
}

func TestADMMDeterministicAcrossWidths(t *testing.T) {
	g := layeredGraph(5, 4, 7)
	for _, skipPolish := range []bool{false, true} {
		var base Result
		for wi, width := range []string{"1", "4", ""} {
			t.Setenv(par.EnvWorkers, width)
			res, err := Solve(g, cm5Fit, 16, Options{
				Backend: "admm",
				ADMM:    ADMMOptions{Subgraphs: 3, SkipPolish: skipPolish},
			})
			if err != nil {
				t.Fatal(err)
			}
			if wi == 0 {
				base = res
				continue
			}
			if res.Phi != base.Phi {
				t.Fatalf("polish=%v width %q: Φ %v vs %v", !skipPolish, width, res.Phi, base.Phi)
			}
			for i := range res.P {
				if res.P[i] != base.P[i] {
					t.Fatalf("polish=%v width %q: P[%d] = %v vs %v", !skipPolish, width, i, res.P[i], base.P[i])
				}
			}
		}
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	if _, err := Solve(forkJoin(0.9), cm5Fit, 8, Options{Backend: "simplex"}); err == nil {
		t.Fatal("unknown backend must error")
	}
}

func chainGraph() *mdg.Graph {
	var g mdg.Graph
	a := g.AddNode(mdg.Node{Name: "a", Alpha: 0.85, Tau: 3})
	b := g.AddNode(mdg.Node{Name: "b", Alpha: 0.6, Tau: 7})
	c := g.AddNode(mdg.Node{Name: "c", Alpha: 0.95, Tau: 2})
	g.AddEdge(a, b, mdg.Transfer{Bytes: 4096, Kind: mdg.Transfer2D})
	g.AddEdge(b, c, mdg.Transfer{Bytes: 1024, Kind: mdg.Transfer1D})
	return &g
}
