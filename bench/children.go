package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runChild measures one workload in a child process of this binary, so
// that every measurement starts from a fresh heap, and parses the result
// line it prints last.
func runChild(ctx context.Context, name string, o options) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"--workload", name, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0"}
	if o.trace {
		args[len(args)-1] = "1"
	}
	if o.quick {
		args = append(args, "--quick")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	// An interrupt must reach the child as a signal it can handle: it has
	// a server of its own to stop.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 2 * stopGrace
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var res result
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err == nil {
			err = jerr
		}
		return result{}, fmt.Errorf("%s seed %d: %w", name, o.seed, err)
	}
	return res, err
}

func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll measures every named workload untraced, then traced, and prints
// every metric by name with its unit.
func runAll(ctx context.Context, bf *benchFile, names []string, o options, out string) error {
	type row struct {
		Workload string `json:"workload"`
		Traced   bool   `json:"traced"`
		result
	}
	var rows []row
	failed := 0
	for _, traced := range []bool{false, true} {
		o.trace = traced
		defs := bf.EndToEnd
		if traced {
			defs = bf.PerLayer
		}
		for _, name := range names {
			t0 := time.Now()
			res, err := runChild(ctx, name, o)
			if err != nil && res.Metrics == nil {
				return err
			}
			failed += res.Failed
			rows = append(rows, row{name, traced, res})
			fmt.Printf("%s  traced %v  attempted %d  failed %d  (%.1f s)\n", name, traced, res.Attempted, res.Failed, time.Since(t0).Seconds())
			for _, d := range defs {
				fmt.Printf("  %-32s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
			}
		}
	}
	if err := writeJSON(out, rows); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runAA is the benchmark's check on itself, the same one the driver
// makes: every workload on n seeds, twice. A metric is steady when the
// distance between the quartiles of its n values stays within its bound
// (asked of every metric but setup_s) and the second set's median is not
// worse than the first's by more than the bound. "tight" marks a spread
// below a third of the bound, the margin to aim for.
func runAA(ctx context.Context, bf *benchFile, names []string, o options, n int, out string) error {
	type verdict struct {
		Workload, Metric string
		MedianA, MedianB float64
		SpreadA, SpreadB float64
		Worsening, Bound float64
		Pass, Tight      bool
		ValuesA, ValuesB []float64
		FailedA, FailedB int
	}
	var verdicts []verdict
	allPass := true
	o.trace = false
	first := o.seed
	for _, name := range names {
		values := [2]map[string][]float64{{}, {}}
		var failed [2]int
		for set := 0; set < 2; set++ {
			for i := 0; i < n; i++ {
				o.seed = first + uint64(i)
				res, err := runChild(ctx, name, o)
				if err != nil && res.Metrics == nil {
					return err
				}
				failed[set] += res.Failed
				for k, mv := range res.Metrics {
					values[set][k] = append(values[set][k], mv.Value)
				}
			}
		}
		for _, d := range bf.EndToEnd {
			a, b := values[0][d.Name], values[1][d.Name]
			v := verdict{Workload: name, Metric: d.Name, MedianA: median(a), MedianB: median(b),
				SpreadA: spread(a), SpreadB: spread(b), Bound: *d.Bound, ValuesA: a, ValuesB: b,
				FailedA: failed[0], FailedB: failed[1]}
			v.Worsening = (v.MedianB - v.MedianA) / v.MedianA
			if d.Better == "higher" {
				v.Worsening = -v.Worsening
			}
			widest := max(v.SpreadA, v.SpreadB)
			if d.Name == "setup_s" {
				widest = 0
			}
			v.Pass = widest <= v.Bound && v.Worsening <= v.Bound && failed[0]+failed[1] == 0
			v.Tight = widest <= v.Bound/3
			allPass = allPass && v.Pass
			verdicts = append(verdicts, v)
			fmt.Printf("%-22s %-15s A %-12.6g B %-12.6g spread %.4f %.4f  worse %+.4f  bound %-6g %s%s\n",
				name, d.Name, v.MedianA, v.MedianB, v.SpreadA, v.SpreadB, v.Worsening, v.Bound,
				map[bool]string{true: "PASS", false: "FAIL"}[v.Pass], map[bool]string{true: " tight", false: ""}[v.Tight])
		}
	}
	if err := writeJSON(out, verdicts); err != nil {
		return err
	}
	if !allPass {
		return fmt.Errorf("A/A: some metric is not steady within its bound (see %s above)", strings.Join(names, ", "))
	}
	return nil
}
