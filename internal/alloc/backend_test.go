package alloc_test

import (
	"math/rand"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/mdg"
)

// layeredMDG builds the benchmark's plan_admm_layered1000 graph the way
// bench/gen.go does: 100 layers × 10 nodes, each wired to 1-2 nodes of the
// next layer from a fixed seed, with a START/STOP pair.
func layeredMDG(t testing.TB) *mdg.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var g mdg.Graph
	const layers, width = 100, 10
	ids := make([][]mdg.NodeID, layers)
	for l := range ids {
		ids[l] = make([]mdg.NodeID, width)
		for w := range ids[l] {
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
	if _, _, err := g.EnsureStartStop(); err != nil {
		t.Fatal(err)
	}
	return &g
}

// TestADMMNameIsTheExactSolve: the retired "admm" backend name, with the
// options the benchmark pins for plan_admm_layered1000, runs the exact
// solve. On that workload's graph and on the benchmark's two headline
// programs it returns P, Φ, A_p and C_p bit for bit as the default solve
// does, and reports BackendAnneal, the path that ran.
func TestADMMNameIsTheExactSolve(t *testing.T) {
	cal := trainedModel(t)
	admm := alloc.Options{Backend: alloc.BackendADMM, ADMM: alloc.ADMMOptions{Subgraphs: 8, MaxIters: 6, SkipPolish: true}}
	for _, in := range []instance{
		{"layered1000-p64", layeredMDG(t), cal.Model(), 64},
		programInstance(t, cal, "strassen", 128, 64),
		programInstance(t, cal, "cmm", 256, 64),
	} {
		want, err := alloc.Solve(in.g, in.model, in.procs, alloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := alloc.Solve(in.g, in.model, in.procs, admm)
		if err != nil {
			t.Fatal(err)
		}
		if got.Backend != alloc.BackendAnneal || !sameBits(got, want) {
			t.Errorf("%s: backend %q, Φ %v; default solve %q, Φ %v", in.name, got.Backend, got.Phi, want.Backend, want.Phi)
		}
	}
}
