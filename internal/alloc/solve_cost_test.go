package alloc_test

import (
	"testing"

	"paradigm/internal/alloc"
)

// TestSolveAllocs holds the exact solve of the benchmark's headline
// program and of the CMM fast path to an allocation budget, about 1.5×
// what they make (130 and 114), so that per-node slices, maps and
// per-call scratch in the compile and the interior-point setup cannot
// creep back: with them the two solves made 1 354 and 365 allocations.
func TestSolveAllocs(t *testing.T) {
	cal := trainedModel(t)
	for _, tc := range []struct {
		in     instance
		budget float64
	}{
		{programInstance(t, cal, "strassen", 128, 64), 200},
		{programInstance(t, cal, "cmm", 64, 32), 175},
	} {
		t.Run(tc.in.name, func(t *testing.T) {
			var err error
			allocs := testing.AllocsPerRun(10, func() { _, err = alloc.Solve(tc.in.g, tc.in.model, tc.in.procs, alloc.Options{}) })
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f allocations", allocs)
			if allocs > tc.budget {
				t.Errorf("alloc.Solve makes %.0f allocations, budget %.0f", allocs, tc.budget)
			}
		})
	}
}

// BenchmarkSolveSetupStrassen128 times what the Strassen-128 / p = 64
// solve pays before its first iteration — compile, epigraph form and the
// interior-point setup (supports, minimum-degree order, factor pattern,
// Hessian positions) — so that the setup and the iterations of
// BenchmarkAllocSolveStrassen128 each have a number.
func BenchmarkSolveSetupStrassen128(b *testing.B) {
	in := programInstance(b, trainedModel(b), "strassen", 128, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := alloc.SolveSetup(in.g, in.model, in.procs); err != nil {
			b.Fatal(err)
		}
	}
}
