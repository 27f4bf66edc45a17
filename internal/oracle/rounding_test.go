package oracle

import (
	"math"
	"slices"
	"sort"
	"testing"

	"paradigm/internal/mdg"
	"paradigm/internal/sched"
)

// The rounding band, restated independently of package sched: a node whose
// continuous allocation lies within 0.5 % of a boundary 1.5·2^k may be
// rounded either way, and PSA keeps whichever schedule is shorter.
const roundBand = 0.005

// bandedAlternative is the power of two across the nearest rounding
// boundary from where p rounds, bounded by pb; ok is false outside the band.
func bandedAlternative(p float64, pb int) (alt int, ok bool) {
	lower := 1
	for float64(2*lower) <= p {
		lower *= 2
	}
	b := 1.5 * float64(lower)
	if math.Abs(p-b) > roundBand*b {
		return 0, false
	}
	alt = 2 * lower
	if p > b {
		alt = lower
	}
	return min(alt, pb), true
}

// nearBoundaryAllocation draws a continuous allocation for g in which
// about half the nodes sit within ±1 % of a rounding boundary — half of
// those inside the band — and the rest anywhere in [1, procs].
func nearBoundaryAllocation(r *rng, n, procs int) []float64 {
	cont := make([]float64, n)
	for i := range cont {
		if r.intn(2) == 0 {
			cont[i] = 1 + float64(procs-1)*r.float()
			continue
		}
		b := 1.5
		for r.intn(2) == 0 && 2*b < float64(procs) {
			b *= 2
		}
		cont[i] = b * (1 + 0.02*(r.float()-0.5))
	}
	return cont
}

// TestRoundingBandProperties checks the boundary-robust rounding of
// sched.Run on generated MDGs with allocations planted near boundaries:
// the schedule is valid, never longer than the one plain RoundAndBound
// gives, differs from it only at in-band nodes and, when at most four
// nodes are in the band, equals the brute-force minimum over every
// combination. The same holds after the nodes are renumbered, with the
// same nodes in the band — PSA's own tie-breaks see node numbers, so T_psa
// itself may move, but never above what the original labeling's choice of
// roundings achieves on the renumbered graph.
func TestRoundingBandProperties(t *testing.T) {
	improved, greedy := 0, 0
	for seed := uint64(1); seed <= 300; seed++ {
		g := RandomGraph(seed, GenOptions{MaxNodes: 5 + int(seed%20)})
		if _, _, err := g.EnsureStartStop(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		procs := []int{8, 16, 23, 64}[seed%4]
		n := g.NumNodes()
		cont := nearBoundaryAllocation(newRNG(seed^0xb0a7), n, procs)
		banded, plain, inBand := checkBanded(t, seed, g, cont, procs)
		if banded.Makespan < plain {
			improved++
		}
		if len(inBand) > 4 {
			greedy++
		}

		perm := RandomPerm(seed, n)
		rg, err := g.Relabel(perm)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rbanded, _, rInBand := checkBanded(t, seed, rg, PermuteFloats(cont, perm), procs)
		moved := make([]int, len(inBand))
		for k, i := range inBand {
			moved[k] = int(perm[i])
		}
		sort.Ints(moved)
		if !slices.Equal(moved, rInBand) {
			t.Errorf("seed %d: in-band nodes %v relabel to %v, relabeled graph has %v", seed, inBand, moved, rInBand)
		}
		carried, err := sched.PSA(rg, cm5Fit, PermuteInts(banded.Alloc, perm), procs, sched.LowestEST)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(inBand) <= 4 && rbanded.Makespan > carried.Makespan {
			t.Errorf("seed %d: relabeled T_psa %v, but the original labeling's roundings give %v there", seed, rbanded.Makespan, carried.Makespan)
		}
	}
	t.Logf("300 graphs: the band shortened %d schedules; %d searched greedily", improved, greedy)
}

// checkBanded runs sched.Run on one labeling and checks everything that
// can be checked on it alone; it returns the banded schedule, the plain
// rounding's T_psa and the in-band nodes.
func checkBanded(t *testing.T, seed uint64, g *mdg.Graph, cont []float64, procs int) (*sched.Schedule, float64, []int) {
	t.Helper()
	banded, err := sched.Run(g, cm5Fit, cont, procs, sched.Options{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if err := CheckSchedule(g, cm5Fit, banded); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	plainAlloc, err := sched.RoundAndBound(cont, procs, banded.PB, false, nil)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	plain, err := sched.PSA(g, cm5Fit, plainAlloc, procs, sched.LowestEST)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if banded.Makespan > plain.Makespan {
		t.Errorf("seed %d: banded T_psa %v exceeds plain rounding's %v", seed, banded.Makespan, plain.Makespan)
	}
	var inBand []int
	for i, p := range cont {
		alt, ok := bandedAlternative(p, banded.PB)
		if ok && alt != plainAlloc[i] {
			inBand = append(inBand, i)
		}
		if banded.Alloc[i] != plainAlloc[i] && !(ok && banded.Alloc[i] == alt) {
			t.Errorf("seed %d: node %d at %v got %d, plain rounding %d, not its banded alternative", seed, i, p, banded.Alloc[i], plainAlloc[i])
		}
	}
	if len(inBand) <= 4 {
		if best := bruteForceRounding(t, g, cont, plainAlloc, inBand, banded.PB, procs); banded.Makespan != best {
			t.Errorf("seed %d: banded T_psa %v, brute force over %d in-band nodes %v", seed, banded.Makespan, len(inBand), best)
		}
	}
	return banded, plain.Makespan, inBand
}

// bruteForceRounding is the least T_psa over every combination of
// roundings of the in-band nodes.
func bruteForceRounding(t *testing.T, g *mdg.Graph, cont []float64, plain []int, inBand []int, pb, procs int) float64 {
	t.Helper()
	best := math.Inf(1)
	for mask := 0; mask < 1<<len(inBand); mask++ {
		a := append([]int(nil), plain...)
		for k, i := range inBand {
			if mask>>k&1 == 1 {
				a[i], _ = bandedAlternative(cont[i], pb)
			}
		}
		s, err := sched.PSA(g, cm5Fit, a, procs, sched.LowestEST)
		if err != nil {
			t.Fatal(err)
		}
		best = math.Min(best, s.Makespan)
	}
	return best
}
