package experiments

import (
	"strings"
	"testing"
	"time"

	"paradigm/internal/trainsets"
)

// TestRenderersOnSyntheticResults exercises every result printer on
// hand-built values, independent of the (expensive) drivers.
func TestRenderersOnSyntheticResults(t *testing.T) {
	cases := []struct {
		name string
		r    interface{ String() string }
		want []string
	}{
		{"example3", &Example3Result{NaiveTime: 15.6, MixedTime: 14.3, Gantt: "G"},
			[]string{"15.6", "14.3"}},
		{"table1", &Table1Result{Fits: []trainsets.LoopFit{{Name: "L", R2: 0.99}}},
			[]string{"Table 1", "L"}},
		{"fig3", &Fig3Result{Fits: []trainsets.LoopFit{{Name: "L",
			Samples: []trainsets.LoopSample{{Procs: 2, Measured: 1, Predicted: 1.1}}}}},
			[]string{"Figure 3", "+10.0"}},
		{"table2", &Table2Result{}, []string{"Table 2"}},
		{"fig5", &Fig5Result{Fit: trainsets.TransferFit{Samples: []trainsets.TransferSample{
			{Bytes: 8, Pi: 1, Pj: 2}}}}, []string{"Figure 5"}},
		{"fig6", &Fig6Result{CMMNodes: 12, StrassenNodes: 35}, []string{"12", "35"}},
		{"fig7", &Fig7Result{SchedTab: "TAB", Gantt: "GANTT"}, []string{"Figure 7", "TAB"}},
		{"fig8", &Fig8Result{Rows: []Fig8Row{{Program: "P", Procs: 16, SerialTime: 1,
			SPMDTime: 0.5, MPMDTime: 0.25, SPMDSpeedup: 2, MPMDSpeedup: 4}}},
			[]string{"Figure 8", "4.00"}},
		{"fig9", &Fig9Result{Rows: []Fig9Row{{Program: "P", Procs: 16, Predicted: 1,
			Actual: 0.9, Normalized: 1.111}}}, []string{"Figure 9", "1.111"}},
		{"table3", &Table3Result{Rows: []Table3Row{{Program: "P", Procs: 16,
			Phi: 1, Tpsa: 1.1, PercentChange: 10}}}, []string{"Table 3", "+10.0"}},
		{"a1", &AblationRoundingResult{Rows: []AblationRoundingRow{{Program: "P",
			Procs: 16, RoundedWithinBound: true}}}, []string{"A1", "true"}},
		{"a2", &AblationPBResult{Program: "P", Procs: 32, Rows: []AblationPBRow{
			{PB: 8, BoundFactor: 82.1, Tpsa: 0.16, IsCorollary: true}}},
			[]string{"A2", "chosen"}},
		{"a3", &AblationTransferResult{Rows: []AblationTransferRow{{Program: "P",
			Procs: 16, PhiAware: 1, PhiBlind: 1.1, PenaltyPct: 10}}},
			[]string{"A3", "+10.0"}},
		{"a4", &AblationSchedulerResult{Procs: 16, Rows: []AblationSchedulerRow{
			{Workload: "w", PSATime: 1, FIFOTime: 1.1, HLFTime: 1.2}}},
			[]string{"A4", "w"}},
		{"a5", &AblationHeuristicResult{Rows: []AblationHeuristicRow{{Program: "P",
			Procs: 16, PhiConvex: 1, PhiHeuristic: 1.2, GapPct: 20}}},
			[]string{"A5", "+20.0"}},
		{"a6", &AblationStaticResult{Rows: []AblationStaticRow{{Loop: "L"}}},
			[]string{"A6", "L"}},
		{"a7", &JitterResult{Program: "P", Procs: 32, Rows: []JitterRow{
			{JitterPct: 15, Actual: 0.08, RatioPredActual: 0.97}}},
			[]string{"A7", "15"}},
		{"e11", &PortabilityResult{FittedTnNs: 6, TruthTnNs: 6,
			Rows: []PortabilityRow{{Program: "P", Procs: 16}}},
			[]string{"E11", "6.00"}},
		{"e12", &GridDistResult{Alpha1DPct: 4.1, AlphaGridPct: 1.1,
			Rows: []GridDistRow{{Procs: 64, Actual1D: 0.26, ActualGrid: 0.22}}},
			[]string{"E12", "1.1%"}},
		{"e13", &ScalabilityResult{Procs: 32, Rows: []ScalabilityRow{{Nodes: 106,
			AllocTime: time.Second, SchedTime: time.Millisecond}}},
			[]string{"E13", "106"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := c.r.String()
			if out == "" {
				t.Fatal("empty render")
			}
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Fatalf("render missing %q:\n%s", w, out)
				}
			}
		})
	}
}
