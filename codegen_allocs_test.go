package paradigm

import (
	"context"
	"testing"

	"paradigm/internal/codegen"
)

// TestGenerateAllocs holds the lowering of the benchmark's two programs
// to an allocation budget (DESIGN.md §7, "MPMD code by index"). Code that
// named instances and messages by string took 4 352 and 3 411
// allocations; the budgets leave room for growth without letting a
// string, a boxed instruction or a map per message come back.
func TestGenerateAllocs(t *testing.T) {
	cal := testCal(t)
	for _, tc := range []struct {
		name   string
		build  func() (*Program, error)
		budget float64
	}{
		{"strassen128-p64", func() (*Program, error) { return Strassen(128, cal) }, 600},
		{"cmm256-p64", func() (*Program, error) { return ComplexMatMul(256, cal) }, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunContext(context.Background(), p, NewCM5(64), cal, 64)
			if err != nil {
				t.Fatal(err)
			}
			var genErr error
			allocs := testing.AllocsPerRun(10, func() { _, genErr = codegen.Generate(p, res.Sched) })
			if genErr != nil {
				t.Fatal(genErr)
			}
			t.Logf("%.0f allocations", allocs)
			if allocs > tc.budget {
				t.Errorf("codegen.Generate makes %.0f allocations, budget %.0f", allocs, tc.budget)
			}
		})
	}
}
