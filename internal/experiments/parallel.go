package experiments

import (
	"context"
	"os"
	"time"

	"paradigm/internal/par"
	"paradigm/internal/prog"
)

// The experiment drivers fan their independent units — whole artifacts in
// All, (program, procs) cells inside each table or figure — across the
// shared worker pool (internal/par). Results are always
// assembled by task index, so the rendered tables are byte-identical at
// any PARADIGM_WORKERS width; the determinism test in
// determinism_test.go holds the suite to that.

// EnvDeterministic, when set to a non-empty value, makes the renderers
// print a fixed placeholder for wall-clock timing columns (which are the
// only nondeterministic bytes in the suite's output). Determinism tests
// set it so serial and parallel runs can be compared byte for byte.
const EnvDeterministic = "PARADIGM_DETERMINISTIC"

// fmtDuration renders a timing column, rounded to unit, honouring
// EnvDeterministic.
func fmtDuration(d time.Duration, unit time.Duration) string {
	if os.Getenv(EnvDeterministic) != "" {
		return "-"
	}
	return d.Round(unit).String()
}

// cell is one (program, procs) coordinate of the paper's evaluation
// sweeps, in canonical paper order.
type cell struct {
	Name  string
	Prog  *prog.Program
	Procs int
}

// cells flattens ProgramNames × SystemSizes over the given programs.
func cells(progs map[string]*prog.Program) []cell {
	out := make([]cell, 0, len(ProgramNames())*len(SystemSizes()))
	for _, name := range ProgramNames() {
		for _, procs := range SystemSizes() {
			out = append(out, cell{Name: name, Prog: progs[name], Procs: procs})
		}
	}
	return out
}

// mapCells runs fn over every (program, procs) cell on the worker pool
// and returns the per-cell results in paper order.
func mapCells[T any](progs map[string]*prog.Program, fn func(c cell) (T, error)) ([]T, error) {
	cs := cells(progs)
	return par.Map(context.Background(), len(cs), func(_ context.Context, i int) (T, error) {
		return fn(cs[i])
	})
}
