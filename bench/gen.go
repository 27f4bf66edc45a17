package main

import (
	"fmt"
	oldrand "math/rand"
	"math/rand/v2"

	"paradigm/internal/mdg"
)

// spec is one service job as submitted: the program under test only ever
// sees these generated values.
type spec struct {
	Program string `json:"program"`
	Size    int    `json:"size"`
	Procs   int    `json:"procs"`
	Tenant  string `json:"tenant,omitempty"`
}

// key identifies everything that determines the job's result.
func (s spec) key() string { return fmt.Sprintf("%s|%d|%d", s.Program, s.Size, s.Procs) }

func newRand(seed uint64, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// The cold and dup workloads draw CMM specs from one grid: 96 sizes by 32
// system sizes.
const (
	gridSizes, gridProcs = 96, 32
	gridMinSize          = 32
	gridMinProcs         = 4
)

// gridSpecs returns n pairwise distinct CMM specs from the grid, in an
// order the seed decides. The *set* depends only on n and offset, never
// on the seed: the workload's mean Φ and mean simulated makespan are then
// the same numbers on every seed, so they can be gated at 1e-9, while the
// seed still decides which jobs meet each other on the server. A stride
// coprime to the grid size walks it without repeating.
func gridSpecs(n, offset int, seed uint64) []spec {
	const cells, stride = gridSizes * gridProcs, 1021
	if n > cells {
		panic("gridSpecs: more specs than grid cells")
	}
	out := make([]spec, n)
	for i := range out {
		cell := (offset + i*stride) % cells
		out[i] = spec{Program: "cmm", Size: gridMinSize + cell/gridProcs, Procs: gridMinProcs + cell%gridProcs}
	}
	newRand(seed, 1).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hotSpecs are the two specs the hot service workload alternates.
func hotSpecs() []spec {
	return []spec{{Program: "cmm", Size: 16, Procs: 4}, {Program: "cmm", Size: 16, Procs: 8}}
}

// shuffledOrder returns a seeded permutation of 0..n-1.
func shuffledOrder(n int, seed uint64) []int {
	return newRand(seed, 2).Perm(n)
}

// layeredMDG rebuilds the 100×10 layered DAG of the root bench_test.go
// (same generator, same fixed seed, so the two benchmarks solve the same
// graph) and gives it the START/STOP pair the PSA needs.
func layeredMDG() (*mdg.Graph, error) {
	rng := oldrand.New(oldrand.NewSource(42))
	var g mdg.Graph
	const layers, width = 100, 10
	ids := make([][]mdg.NodeID, layers)
	for l := range ids {
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
	if _, _, err := g.EnsureStartStop(); err != nil {
		return nil, err
	}
	return &g, nil
}
