package alloc_test

import (
	"math"
	"testing"

	"paradigm/internal/alloc"
)

// TestCachedSolveIsTheColdSolve pins the allocation cache's contract,
// exact replay or nothing, on the 780 instances of solverPopulations. A
// cache primed with the same program at p/2 and 2p must not touch the
// solve at p: it misses and returns P, Φ, A_p and C_p bit for bit as a
// cache-less solve does. A second solve at p is a hit replaying those
// same bits.
func TestCachedSolveIsTheColdSolve(t *testing.T) {
	for _, pop := range solverPopulations(t) {
		t.Run(pop.name, func(t *testing.T) {
			for _, in := range pop.set {
				cold, err := alloc.Solve(in.g, in.model, in.procs, alloc.Options{})
				if err != nil {
					t.Fatal(err)
				}
				opts := alloc.Options{Cache: alloc.NewCache(4)}
				for _, p := range []int{max(in.procs/2, 1), 2 * in.procs} {
					if _, err := alloc.Solve(in.g, in.model, p, opts); err != nil {
						t.Fatal(err)
					}
				}
				for _, want := range []string{"miss", "hit"} {
					got, err := alloc.Solve(in.g, in.model, in.procs, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got.CacheOutcome != want {
						t.Fatalf("%s: outcome %q, want %q", in.name, got.CacheOutcome, want)
					}
					if !sameBits(got, cold) {
						t.Fatalf("%s %s: Φ %v A_p %v C_p %v P %v; cold Φ %v A_p %v C_p %v P %v", in.name, want,
							got.Phi, got.Ap, got.Cp, got.P, cold.Phi, cold.Ap, cold.Cp, cold.P)
					}
				}
			}
		})
	}
}

// sameBits reports whether two allocations agree bit for bit in P, Φ, A_p
// and C_p.
func sameBits(a, b alloc.Result) bool {
	if len(a.P) != len(b.P) {
		return false
	}
	for i := range a.P {
		if math.Float64bits(a.P[i]) != math.Float64bits(b.P[i]) {
			return false
		}
	}
	for _, v := range [][2]float64{{a.Phi, b.Phi}, {a.Ap, b.Ap}, {a.Cp, b.Cp}} {
		if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
			return false
		}
	}
	return true
}
