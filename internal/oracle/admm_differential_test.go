package oracle

import (
	"testing"

	"paradigm/internal/alloc"
)

// TestDifferentialADMMVsBruteForce pits the consensus-ADMM decomposition
// backend against the exact brute-force grid on the same generated
// population the default solver is checked with: the decomposition plus
// its polish pass must stay within 1% of the discretized optimum.
func TestDifferentialADMMVsBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("differential population test")
	}
	const procs = 8
	worst := 0.0
	for seed := uint64(1); seed <= diffSeeds; seed++ {
		g := RandomGraph(seed, GenOptions{})
		r, err := alloc.Solve(g, cm5Fit, procs, alloc.Options{Backend: "admm"})
		if err != nil {
			t.Fatalf("seed %d: admm solve: %v", seed, err)
		}
		if r.Backend != "admm" {
			t.Fatalf("seed %d: backend %q", seed, r.Backend)
		}
		if err := CheckAllocation(g, cm5Fit, procs, r, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bf, err := BruteForceAlloc(g, cm5Fit, procs, BruteForceOptions{})
		if err != nil {
			t.Fatalf("seed %d: brute force: %v", seed, err)
		}
		if r.Phi > bf.Phi*1.01 {
			t.Errorf("seed %d: ADMM Φ = %g exceeds brute-force optimum %g by more than 1%% (ratio %g, n = %d)",
				seed, r.Phi, bf.Phi, r.Phi/bf.Phi, g.NumNodes())
		}
		if ratio := r.Phi / bf.Phi; ratio > worst {
			worst = ratio
		}
	}
	t.Logf("%d graphs, worst ADMM/BruteForce Φ ratio = %.6f", diffSeeds, worst)
}
