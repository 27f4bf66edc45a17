package mdg

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// refIndex is the index the graph used to rebuild in full after every
// mutation, kept as the reference the incremental edge index, the lazy
// adjacency lists and the canonical-form memo are checked against.
type refIndex struct {
	preds, succs [][]NodeID
	edgeIdx      map[[2]NodeID]int
}

func newRefIndex(nodes []Node, edges []Edge) refIndex {
	r := refIndex{
		preds:   make([][]NodeID, len(nodes)),
		succs:   make([][]NodeID, len(nodes)),
		edgeIdx: make(map[[2]NodeID]int, len(edges)),
	}
	for i, e := range edges {
		r.edgeIdx[[2]NodeID{e.From, e.To}] = i
		r.succs[e.From] = append(r.succs[e.From], e.To)
		r.preds[e.To] = append(r.preds[e.To], e.From)
	}
	for i := range r.preds {
		sortIDs(r.preds[i])
		sortIDs(r.succs[i])
	}
	return r
}

// cloneContent deep-copies what a graph is made of.
func cloneContent(nodes []Node, edges []Edge) ([]Node, []Edge) {
	n := append([]Node(nil), nodes...)
	e := make([]Edge, len(edges))
	for i, ed := range edges {
		ed.Transfers = append([]Transfer(nil), ed.Transfers...)
		e[i] = ed
	}
	return n, e
}

// checkAgainstRebuild requires every derived answer of g to equal that of
// a graph holding the same content and nothing else.
func checkAgainstRebuild(t *testing.T, g *Graph, step int, op string) {
	t.Helper()
	nodes, edges := cloneContent(g.Nodes, g.Edges)
	ref := newRefIndex(nodes, edges)
	for i := range nodes {
		id := NodeID(i)
		if got := g.Preds(id); !sameIDs(got, ref.preds[i]) {
			t.Fatalf("step %d (%s): Preds(%d) = %v, rebuilt %v", step, op, i, got, ref.preds[i])
		}
		if got := g.Succs(id); !sameIDs(got, ref.succs[i]) {
			t.Fatalf("step %d (%s): Succs(%d) = %v, rebuilt %v", step, op, i, got, ref.succs[i])
		}
		for j := range nodes {
			got, ok := g.EdgeBetween(id, NodeID(j))
			at, want := ref.edgeIdx[[2]NodeID{id, NodeID(j)}]
			if ok != want || (ok && !reflect.DeepEqual(got, edges[at])) {
				t.Fatalf("step %d (%s): EdgeBetween(%d,%d) = %+v,%v, rebuilt %v", step, op, i, j, got, ok, want)
			}
		}
	}
	hash, perm, err := g.CanonicalHash()
	wantHash, wantPerm, wantErr := (&Graph{Nodes: nodes, Edges: edges}).canonicalHash()
	if (err == nil) != (wantErr == nil) || hash != wantHash || !sameIDs(perm, wantPerm) {
		t.Fatalf("step %d (%s): CanonicalHash = %q %v %v, from scratch %q %v %v",
			step, op, hash, perm, err, wantHash, wantPerm, wantErr)
	}
	orbit, err := g.Orbits()
	wantOrbit, wantErr := (&Graph{Nodes: nodes, Edges: edges}).Orbits()
	if (err == nil) != (wantErr == nil) || !slices.Equal(orbit, wantOrbit) {
		t.Fatalf("step %d (%s): Orbits = %v %v, from scratch %v %v", step, op, orbit, err, wantOrbit, wantErr)
	}
}

func sameIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIndexAndMemoMatchRebuild drives random interleavings of every way
// a graph changes — AddNode, AddEdge on a new and on an existing pair,
// UnmarshalJSON, and writes to the exported fields behind the graph's
// back — with queries in between, so that each cache is exercised both
// warm and cold, and requires the graph to stay indistinguishable from
// one rebuilt from its content. A parallel plain model checks that the
// mutators themselves did what they say.
func TestIndexAndMemoMatchRebuild(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &Graph{}
		var (
			nodes []Node
			edges []Edge
		)
		find := func(from, to NodeID) int {
			for i, e := range edges {
				if e.From == from && e.To == to {
					return i
				}
			}
			return -1
		}
		transfer := func() Transfer {
			return Transfer{Bytes: 64 << rng.Intn(8), Kind: TransferKind(rng.Intn(5))}
		}
		node := func() Node {
			return Node{Name: "n", Alpha: 0.1 + 0.8*rng.Float64(), Tau: 1 + 10*rng.Float64()}
		}
		// A forward pair keeps the graph acyclic.
		pair := func() (NodeID, NodeID) {
			a, b := rng.Intn(len(nodes)), rng.Intn(len(nodes)-1)
			if b >= a {
				b++
			}
			return NodeID(min(a, b)), NodeID(max(a, b))
		}
		for step := 0; step < 120; step++ {
			op := "AddNode"
			switch k := rng.Intn(10); {
			case len(nodes) < 2 || k == 0:
				nd := node()
				if id := g.AddNode(nd); int(id) != len(nodes) {
					t.Fatalf("seed %d step %d: AddNode returned %d, want %d", seed, step, id, len(nodes))
				}
				nodes = append(nodes, nd)
			case k <= 3:
				op = "AddEdge"
				from, to := pair()
				tr := transfer()
				g.AddEdge(from, to, tr)
				if i := find(from, to); i >= 0 {
					op = "AddEdge merge"
					edges[i].Transfers = append(edges[i].Transfers, tr)
				} else {
					edges = append(edges, Edge{From: from, To: to, Transfers: []Transfer{tr}})
				}
			case k == 4 && len(edges) > 0:
				op = "AddEdge merge"
				i := rng.Intn(len(edges))
				tr := transfer()
				g.AddEdge(edges[i].From, edges[i].To, tr)
				edges[i].Transfers = append(edges[i].Transfers, tr)
			case k == 5:
				op = "UnmarshalJSON"
				data, err := json.Marshal(g)
				if err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					// Into the same graph: same shape, every cache stale
					// in principle.
					if err := g.UnmarshalJSON(data); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
				} else {
					fresh := &Graph{}
					if err := json.Unmarshal(data, fresh); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					g = fresh
				}
			case k == 6:
				op = "write Alpha/Tau"
				i := rng.Intn(len(nodes))
				nd := node()
				g.Nodes[i].Alpha, g.Nodes[i].Tau = nd.Alpha, nd.Tau
				nodes[i].Alpha, nodes[i].Tau = nd.Alpha, nd.Tau
			case k == 7 && len(edges) > 0:
				op = "write Transfers"
				i := rng.Intn(len(edges))
				tr := transfer()
				g.Edges[i].Transfers[0] = tr
				edges[i].Transfers[0] = tr
			case k == 8:
				op = "append Edges"
				from, to := pair()
				if find(from, to) >= 0 {
					continue
				}
				e := Edge{From: from, To: to, Transfers: []Transfer{transfer()}}
				g.Edges = append(g.Edges, e)
				edges = append(edges, Edge{From: from, To: to, Transfers: append([]Transfer(nil), e.Transfers...)})
			default:
				op = "append Nodes"
				nd := node()
				g.Nodes = append(g.Nodes, nd)
				nodes = append(nodes, nd)
			}
			if !reflect.DeepEqual(g.Nodes, nodes) || !reflect.DeepEqual(g.Edges, edges) {
				t.Fatalf("seed %d step %d (%s): graph content diverged from the model", seed, step, op)
			}
			// Query after two steps in three, so mutations also pile up on
			// caches that were never refreshed in between.
			if rng.Intn(3) > 0 {
				checkAgainstRebuild(t, g, step, op)
			}
		}
		checkAgainstRebuild(t, g, -1, "final")
	}
}

// TestFrozenGraphConcurrentReaders shares one graph, built but never
// queried, among goroutines that all take the lazy paths at once: run
// under -race it is the check that the index and the memos are published
// safely.
func TestFrozenGraphConcurrentReaders(t *testing.T) {
	g := randomTestGraph(rand.New(rand.NewSource(7)), 12)
	want, _, err := (&Graph{Nodes: g.Nodes, Edges: g.Edges}).canonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	wantOrbit, _ := (&Graph{Nodes: g.Nodes, Edges: g.Edges}).orbits()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, _, err := g.CanonicalHash()
				if err != nil || got != want {
					t.Errorf("CanonicalHash = %q, %v; want %q", got, err, want)
					return
				}
				if orbit, err := g.Orbits(); err != nil || !slices.Equal(orbit, wantOrbit) {
					t.Errorf("Orbits = %v, %v; want %v", orbit, err, wantOrbit)
					return
				}
				for id := range g.Nodes {
					g.Preds(NodeID(id))
					g.EdgeBetween(0, NodeID(id))
				}
			}
		}()
	}
	wg.Wait()
}
