package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paradigm/internal/par"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/report.golden from All")

// reportGolden is the full experiment report as cmd/experiments prints it
// under PARADIGM_DETERMINISTIC=1: every table and figure the paper's
// evaluation reports, byte for byte.
var reportGolden = filepath.Join("testdata", "report.golden")

// TestAllMatchesReportGolden pins the report: All rendered with
// PARADIGM_WORKERS=1 and again at a wide pool width must both equal the
// committed golden. Under the race detector it renders once, at the wide
// width only: that pass is the package's exercise of the concurrent
// experiment drivers under -race. Wall-clock timing columns (the only
// legitimately nondeterministic bytes) are normalized via
// PARADIGM_DETERMINISTIC. A mismatch is a moved paper number; an intended
// one is re-recorded with
// `go test ./internal/experiments -run TestAllMatchesReportGolden -update`
// and named, row by row, in CHANGES.md.
func TestAllMatchesReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run; skipped in -short mode")
	}
	widths := []string{"1", "8"}
	if raceEnabled {
		widths = widths[1:]
	}
	env := testEnv(t)
	t.Setenv(EnvDeterministic, "1")
	for _, workers := range widths {
		t.Setenv(par.EnvWorkers, workers)
		got, err := All(env)
		if err != nil {
			t.Fatalf("PARADIGM_WORKERS=%s: %v", workers, err)
		}
		if *updateGolden && workers == widths[0] {
			if err := os.WriteFile(reportGolden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(reportGolden)
		if err != nil {
			t.Fatalf("missing golden (run with -update to create): %v", err)
		}
		if got != string(want) {
			t.Fatalf("PARADIGM_WORKERS=%s: report differs from %s:\n%s",
				workers, reportGolden, firstDiff(string(want), got))
		}
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("outputs differ in length: %d vs %d lines", len(la), len(lb))
}
