// Command experiments runs every paper experiment (tables, figures,
// ablations, extensions) on the simulated CM-5 and prints them in paper
// format, every artifact in order:
//
//	experiments
//
// PARADIGM_DETERMINISTIC=1 blanks the wall-clock columns, so the output
// can be compared byte for byte (internal/experiments/testdata/report.golden).
package main

import (
	"flag"
	"fmt"
	"os"

	"paradigm/internal/experiments"
)

func main() {
	flag.Parse()

	env, err := experiments.NewEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibration failed:", err)
		os.Exit(1)
	}
	out, err := experiments.All(env)
	fmt.Print(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment failed:", err)
		os.Exit(1)
	}
}
