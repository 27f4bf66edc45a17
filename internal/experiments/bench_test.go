// Benchmarks regenerating every table and figure of the paper's
// evaluation section (one benchmark per artifact, per DESIGN.md's
// experiment index), plus the ablations. Run with:
//
//	go test -run '^$' -bench=. -benchmem ./internal/experiments
//
// Each benchmark executes the complete experiment — calibration reuse,
// convex allocation, PSA scheduling, MPMD code generation and simulated
// execution where applicable — so the reported time is the cost of
// regenerating that artifact end to end.
package experiments

import (
	"testing"

	"paradigm/internal/trainsets"
)

// BenchmarkFig1Fig2Example regenerates the Section 1.2 motivating example
// (naive 15.6 s vs mixed 14.3 s on 4 processors).
func BenchmarkFig1Fig2Example(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Example3Node(e)
		if err != nil {
			b.Fatal(err)
		}
		if r.MixedTime >= r.NaiveTime {
			b.Fatal("mixed schedule must beat naive")
		}
	}
}

// BenchmarkTable1ProcessingFit regenerates the Amdahl parameter fits.
func BenchmarkTable1ProcessingFit(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Table1(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3ProcessingCurves regenerates the actual-vs-predicted
// processing cost series.
func BenchmarkFig3ProcessingCurves(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fig3(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2TransferFit regenerates the transfer parameter fits
// (full measurement sweep plus regression) — the actual calibration work
// behind Table 2, not the cached Env copy.
func BenchmarkTable2TransferFit(b *testing.B) {
	e := testEnv(b)
	configs := trainsets.DefaultTransferConfigs(e.Machine.Procs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainsets.CalibrateTransfers(e.Machine, configs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5TransferCurves regenerates the transfer cost series.
func BenchmarkFig5TransferCurves(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fig5(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6MDGs rebuilds both test-program MDGs and their DOT
// renderings.
func BenchmarkFig6MDGs(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fig6(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Gantt regenerates the Complex Matrix Multiply allocation
// and schedule on 4 processors.
func BenchmarkFig7Gantt(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fig7(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8SpeedupEfficiency regenerates the SPMD-versus-MPMD sweep:
// 2 programs × {serial, 16, 32, 64} × both disciplines, all simulated.
func BenchmarkFig8SpeedupEfficiency(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Fig8(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.MPMDSpeedup < row.SPMDSpeedup {
				b.Fatalf("%s p=%d: MPMD lost to SPMD", row.Program, row.Procs)
			}
		}
	}
}

// BenchmarkFig9PredictedVsActual regenerates the prediction accuracy
// comparison.
func BenchmarkFig9PredictedVsActual(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Fig9(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Normalized < 0.7 || row.Normalized > 1.4 {
				b.Fatalf("%s p=%d: normalized %v", row.Program, row.Procs, row.Normalized)
			}
		}
	}
}

// BenchmarkTable3PhiVsTpsa regenerates the Φ-versus-T_psa deviations.
func BenchmarkTable3PhiVsTpsa(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Table3(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRounding regenerates ablation A1 (rounding/bounding
// cost and the Theorem 3 bound check).
func BenchmarkAblationRounding(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AblationRounding(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPBSweep regenerates ablation A2 (PB sweep versus
// Corollary 1).
func BenchmarkAblationPBSweep(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AblationPBSweep(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoTransferCosts regenerates ablation A3
// (transfer-blind allocation penalty).
func BenchmarkAblationNoTransferCosts(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AblationNoTransferCosts(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScheduler regenerates ablation A4 (PSA vs FIFO).
func BenchmarkAblationScheduler(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AblationScheduler(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHeuristic regenerates ablation A5 (convex vs greedy
// heuristic allocation).
func BenchmarkAblationHeuristic(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := AblationHeuristic(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.GapPct < -0.5 {
				b.Fatal("heuristic beat the convex optimum")
			}
		}
	}
}

// BenchmarkAblationStaticEstimate regenerates ablation A6 (training sets
// vs compile-time static estimation).
func BenchmarkAblationStaticEstimate(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AblationStaticEstimate(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortabilityParagon regenerates experiment E11 (full pipeline
// on the Intel-Paragon-like profile, including its own calibration).
func BenchmarkPortabilityParagon(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Portability(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationJitter regenerates ablation A7 (execution noise
// robustness sweep).
func BenchmarkAblationJitter(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AblationJitter(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridDistribution regenerates experiment E12 (the general
// 2D-distribution extension: grid vs 1D multiply layouts end to end).
func BenchmarkGridDistribution(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := GridDistribution(e)
		if err != nil {
			b.Fatal(err)
		}
		if r.AlphaGridPct >= r.Alpha1DPct {
			b.Fatal("grid multiply should fit a lower serial fraction")
		}
	}
}

// BenchmarkScalability regenerates experiment E13 (allocator scalability
// on layered synthetic MDGs up to 100+ nodes).
func BenchmarkScalability(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Scalability(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.PhiHeuristic < row.PhiConvex*(1-5e-3) {
				b.Fatal("heuristic beat convex")
			}
		}
	}
}

// BenchmarkStrassenRecursion regenerates experiment E14 (recursive
// Strassen depth sweep on 64 processors).
func BenchmarkStrassenRecursion(b *testing.B) {
	e := testEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := StrassenRecursion(e)
		if err != nil {
			b.Fatal(err)
		}
		if r.WorstNumDiff > 1e-9 {
			b.Fatal("numerics broken")
		}
	}
}
