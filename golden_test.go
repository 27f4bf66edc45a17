package paradigm

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden schedule files under testdata/golden")

// formatSchedule renders a schedule as a canonical, diff-friendly text
// form: header, then one line per node in (start, id) order. The pipeline
// is deterministic end to end, so the rendering is byte-stable; any churn
// in a golden file is a behavior change in the allocator, the rounding,
// or the list scheduler, and must be reviewed (and re-blessed with
// `go test -run TestGoldenSchedules -update`).
func formatSchedule(name string, procs int, p *Program, s *Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s on CM-5 procs=%d PB=%d policy=%s\n", name, procs, s.PB, s.Policy)
	fmt.Fprintf(&b, "# makespan %.12g\n", s.Makespan)
	order := make([]int, len(s.Entries))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := s.Entries[order[a]], s.Entries[order[b]]
		if ea.Start != eb.Start {
			return ea.Start < eb.Start
		}
		return ea.Node < eb.Node
	})
	for _, i := range order {
		e := s.Entries[i]
		procsStr := make([]string, len(e.Procs))
		for k, pr := range e.Procs {
			procsStr[k] = fmt.Sprintf("%d", pr)
		}
		fmt.Fprintf(&b, "%-12s alloc=%-3d procs=[%s] start=%.12g finish=%.12g\n",
			p.G.Nodes[e.Node].Name, s.Alloc[e.Node], strings.Join(procsStr, ","), e.Start, e.Finish)
	}
	return b.String()
}

// TestGoldenSchedules pins the canonical schedules of the paper's two
// benchmark programs at three system sizes. A golden mismatch means the
// allocate->round->schedule pipeline changed its output for a fixed
// input — intentional changes are re-blessed with -update.
func TestGoldenSchedules(t *testing.T) {
	cal := testCal(t)
	model := cal.Model()
	programs := []struct {
		name  string
		build func() (*Program, error)
	}{
		{"cmm32", func() (*Program, error) { return ComplexMatMul(32, cal) }},
		{"strassen16", func() (*Program, error) { return Strassen(16, cal) }},
	}
	for _, pg := range programs {
		p, err := pg.build()
		if err != nil {
			t.Fatalf("%s: %v", pg.name, err)
		}
		for _, procs := range []int{4, 16, 64} {
			t.Run(fmt.Sprintf("%s-p%d", pg.name, procs), func(t *testing.T) {
				ar, err := AllocateContext(context.Background(), p.G, model, procs)
				if err != nil {
					t.Fatal(err)
				}
				s, err := BuildScheduleContext(context.Background(), p.G, model, ar.P, procs)
				if err != nil {
					t.Fatal(err)
				}
				got := formatSchedule(pg.name, procs, p, s)
				path := filepath.Join("testdata", "golden", fmt.Sprintf("%s-p%d.golden", pg.name, procs))
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create): %v", err)
				}
				if got != string(want) {
					t.Errorf("schedule diverged from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
				}
			})
		}
	}
}
