// Chaos harness for the write-ahead checkpoint log: runs are killed at
// randomized commit points (in-process aborts and real SIGKILLs), then
// resumed from the WAL, and the resumed result must match an
// uninterrupted reference byte for byte — the schedule rendering, the
// allocation, the simulated traffic, and every gathered array. The
// resumed trace must also satisfy the run oracle, and a damaged or
// mismatched log must be refused, never resumed silently.
package paradigm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"paradigm/internal/ckpt"
	"paradigm/internal/obs"
	"paradigm/internal/oracle"
)

// buildProgram constructs one of the two paper benchmarks by name.
func buildProgram(t testing.TB, cal *Calibration, name string) *Program {
	t.Helper()
	var (
		p   *Program
		err error
	)
	switch name {
	case "cmm32":
		p, err = ComplexMatMul(32, cal)
	case "strassen16":
		p, err = Strassen(16, cal)
	default:
		t.Fatalf("unknown test program %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// gatherAll collects every program array from a finished run, in
// deterministic name order.
func gatherAll(t testing.TB, p *Program, res *Result) map[string]*Matrix {
	t.Helper()
	names := make([]string, 0, len(p.Arrays))
	for n := range p.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make(map[string]*Matrix, len(names))
	for _, n := range names {
		m, err := res.Sim.Gather(n)
		if err != nil {
			t.Fatalf("gather %s: %v", n, err)
		}
		out[n] = m
	}
	return out
}

// requireIdenticalRuns asserts that a resumed run reproduced the
// reference bit for bit: schedule rendering, allocation vector,
// makespans, message accounting, and every array element.
func requireIdenticalRuns(t *testing.T, name string, procs int, p *Program, ref, got *Result) {
	t.Helper()
	if a, b := formatSchedule(name, procs, p, ref.Sched), formatSchedule(name, procs, p, got.Sched); a != b {
		t.Fatalf("resumed schedule differs from reference:\n--- reference\n%s--- resumed\n%s", a, b)
	}
	for i := range ref.Alloc.P {
		if ref.Alloc.P[i] != got.Alloc.P[i] {
			t.Fatalf("allocation differs at node %d: %v vs %v", i, ref.Alloc.P[i], got.Alloc.P[i])
		}
	}
	if ref.Actual != got.Actual || ref.Predicted != got.Predicted {
		t.Fatalf("makespans differ: actual %v vs %v, predicted %v vs %v",
			ref.Actual, got.Actual, ref.Predicted, got.Predicted)
	}
	if ref.Sim.Messages != got.Sim.Messages || ref.Sim.NetworkBytes != got.Sim.NetworkBytes {
		t.Fatalf("traffic differs: %d/%d messages, %d/%d bytes",
			ref.Sim.Messages, got.Sim.Messages, ref.Sim.NetworkBytes, got.Sim.NetworkBytes)
	}
	if a, b := ref.Digest(), got.Digest(); a != b {
		t.Fatalf("result digests differ: %s vs %s", a, b)
	}
	refArrays, gotArrays := gatherAll(t, p, ref), gatherAll(t, p, got)
	for name, rm := range refArrays {
		gm := gotArrays[name]
		if rm.Rows != gm.Rows || rm.Cols != gm.Cols {
			t.Fatalf("array %s shape differs", name)
		}
		for i := range rm.Data {
			if rm.Data[i] != gm.Data[i] {
				t.Fatalf("array %s differs at element %d: %v vs %v", name, i, rm.Data[i], gm.Data[i])
			}
		}
	}
}

// TestKillAndResumeBitIdentical aborts the pipeline after its k-th
// durable commit (the OnCommit hook cancels the context the moment the
// record hits disk — the in-process analogue of a kill) and resumes
// from the WAL. For both benchmarks at every paper system size and
// every early kill point, the resumed run must be bit-identical to an
// uninterrupted reference and its trace must satisfy the run oracle.
func TestKillAndResumeBitIdentical(t *testing.T) {
	cal := testCal(t)
	m := NewCM5(64)
	for _, name := range []string{"cmm32", "strassen16"} {
		p := buildProgram(t, cal, name)
		for _, procs := range []int{4, 16, 64} {
			ref, err := RunContext(context.Background(), p, m, cal, procs)
			if err != nil {
				t.Fatalf("%s p=%d reference: %v", name, procs, err)
			}
			// Commit order: meta, alloc, sched, done.
			for kill := 1; kill <= 3; kill++ {
				t.Run(fmt.Sprintf("%s-p%d-kill%d", name, procs, kill), func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "run.wal")
					cp, err := CreateCheckpoint(path)
					if err != nil {
						t.Fatal(err)
					}
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					commits := 0
					cp.OnCommit(func(string, int) {
						commits++
						if commits == kill {
							cancel()
						}
					})
					if _, err := RunContext(ctx, p, m, cal, procs, WithCheckpoint(cp)); !errors.Is(err, context.Canceled) {
						t.Fatalf("aborted run = %v, want context.Canceled", err)
					}
					if commits != kill {
						t.Fatalf("aborted run committed %d records past the kill point %d", commits, kill)
					}

					re, err := LoadCheckpoint(path)
					if err != nil {
						t.Fatal(err)
					}
					tr := &oracle.Trace{}
					rec := NewEventRecorder()
					got, err := RunContext(context.Background(), p, m, cal, procs,
						WithCheckpoint(re), WithObserver(MultiObserver(tr, rec)))
					if err != nil {
						t.Fatalf("resume: %v", err)
					}
					requireIdenticalRuns(t, name, procs, p, ref, got)
					if err := oracle.CheckRun(p.G, tr, got.Sim); err != nil {
						t.Fatalf("oracle rejects resumed trace: %v", err)
					}
					// Stages committed before the kill (beyond meta) must be
					// restored, not recomputed: one Resume event each.
					resumes := 0
					for _, e := range rec.Events() {
						if _, ok := e.(obs.Resume); ok {
							resumes++
						}
					}
					if want := kill - 1; resumes != want {
						t.Fatalf("resumed run emitted %d Resume events, want %d", resumes, want)
					}
				})
			}
		}
	}
}

// A log written when the pipeline still journaled its MPMD code holds a
// "codegen" record after sched. A resume must neither decode nor trust
// it: the run regenerates the code from the restored schedule, matches
// an uninterrupted run bit for bit, and restores alloc and sched only.
func TestResumeIgnoresCodegenRecord(t *testing.T) {
	cal := testCal(t)
	m := NewCM5(64)
	p := buildProgram(t, cal, "cmm32")
	ref, err := RunContext(context.Background(), p, m, cal, 8)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.wal")
	cp, err := CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cp.OnCommit(func(stage string, _ int) {
		if stage == "sched" {
			cancel()
		}
	})
	if _, err := RunContext(ctx, p, m, cal, 8, WithCheckpoint(cp)); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted run = %v, want context.Canceled", err)
	}

	re, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.log.Commit("codegen", []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	rec := NewEventRecorder()
	got, err := RunContext(context.Background(), p, m, cal, 8, WithCheckpoint(re), WithObserver(rec))
	if err != nil {
		t.Fatalf("resume over a stale codegen record: %v", err)
	}
	requireIdenticalRuns(t, "cmm32", 8, p, ref, got)
	var resumed []string
	for _, e := range rec.Events() {
		if r, ok := e.(obs.Resume); ok {
			resumed = append(resumed, r.Stage)
		}
	}
	if fmt.Sprint(resumed) != "[alloc sched]" {
		t.Fatalf("resumed stages %v, want [alloc sched]", resumed)
	}
}

// ckptChildEnv marks the re-exec'ed child of the SIGKILL chaos test.
const ckptChildEnv = "PARADIGM_CKPT_CHILD"

// TestCkptChildProcess is the subprocess body of the SIGKILL test: it
// runs the checkpointed pipeline and kills its own process — a real,
// unhandleable SIGKILL — from the commit hook. It only runs when
// re-exec'ed by TestKillMinus9AndResume.
func TestCkptChildProcess(t *testing.T) {
	if os.Getenv(ckptChildEnv) != "1" {
		t.Skip("subprocess body; driven by TestKillMinus9AndResume")
	}
	name := os.Getenv("PARADIGM_CKPT_PROGRAM")
	killAfter, err := strconv.Atoi(os.Getenv("PARADIGM_CKPT_KILL_AFTER"))
	if err != nil {
		t.Fatal(err)
	}
	path := os.Getenv("PARADIGM_CKPT_WAL")
	cal := testCal(t)
	p := buildProgram(t, cal, name)
	cp, err := CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	commits := 0
	cp.OnCommit(func(string, int) {
		commits++
		if commits == killAfter {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
	})
	_, err = RunContext(context.Background(), p, NewCM5(64), cal, 8, WithCheckpoint(cp))
	t.Fatalf("child survived its own SIGKILL: err=%v", err)
}

// TestKillMinus9AndResume re-execs the test binary, lets the child
// checkpoint a real run and SIGKILL itself mid-pipeline, then resumes
// from the surviving WAL in this process and requires a bit-identical,
// oracle-clean result.
func TestKillMinus9AndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	cal := testCal(t)
	m := NewCM5(64)
	cases := []struct {
		program   string
		killAfter int
	}{
		{"cmm32", 2},      // dies right after the alloc commit
		{"strassen16", 3}, // dies right after the sched commit
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-kill%d", tc.program, tc.killAfter), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wal")
			cmd := exec.Command(os.Args[0], "-test.run=^TestCkptChildProcess$", "-test.v")
			cmd.Env = append(os.Environ(),
				ckptChildEnv+"=1",
				"PARADIGM_CKPT_PROGRAM="+tc.program,
				"PARADIGM_CKPT_KILL_AFTER="+strconv.Itoa(tc.killAfter),
				"PARADIGM_CKPT_WAL="+path,
			)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("child did not die: err=%v\n%s", err, out)
			}
			status, ok := exit.Sys().(syscall.WaitStatus)
			if !ok || !status.Signaled() || status.Signal() != syscall.SIGKILL {
				t.Fatalf("child exit = %v, want death by SIGKILL\n%s", err, out)
			}

			re, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("WAL unreadable after SIGKILL: %v", err)
			}
			if got := len(re.Stages()); got < tc.killAfter {
				t.Fatalf("WAL has %d stages, want >= %d: %v", got, tc.killAfter, re.Stages())
			}
			p := buildProgram(t, cal, tc.program)
			ref, err := RunContext(context.Background(), p, m, cal, 8)
			if err != nil {
				t.Fatal(err)
			}
			tr := &oracle.Trace{}
			got, err := RunContext(context.Background(), p, m, cal, 8,
				WithCheckpoint(re), WithObserver(tr))
			if err != nil {
				t.Fatalf("resume after SIGKILL: %v", err)
			}
			requireIdenticalRuns(t, tc.program, 8, p, ref, got)
			if err := oracle.CheckRun(p.G, tr, got.Sim); err != nil {
				t.Fatalf("oracle rejects resumed trace: %v", err)
			}
		})
	}
}

// A damaged WAL — truncated or bit-flipped — must fail with the typed
// corruption sentinel at open time, from both strict and lenient
// entry points. A silent fresh start over a damaged log is forbidden.
func TestCorruptWALRefused(t *testing.T) {
	cal := testCal(t)
	p := buildProgram(t, cal, "cmm32")
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wal")
	cp, err := CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), p, NewCM5(64), cal, 4, WithCheckpoint(cp)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	truncated := filepath.Join(dir, "truncated.wal")
	if err := os.WriteFile(truncated, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "flipped.wal")
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x20
	if err := os.WriteFile(flipped, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, damaged := range []string{truncated, flipped} {
		if _, err := LoadCheckpoint(damaged); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("LoadCheckpoint(%s) = %v, want ErrCheckpointCorrupt", filepath.Base(damaged), err)
		}
		if _, err := OpenDeferredCheckpoint(damaged); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("OpenDeferredCheckpoint(%s) = %v, want ErrCheckpointCorrupt", filepath.Base(damaged), err)
		}
	}
}

// A valid WAL replayed against a different job (other program, other
// system size) must be refused with the mismatch sentinel.
func TestMismatchedWALRefused(t *testing.T) {
	cal := testCal(t)
	cmm := buildProgram(t, cal, "cmm32")
	strassen := buildProgram(t, cal, "strassen16")
	m := NewCM5(64)
	path := filepath.Join(t.TempDir(), "run.wal")
	cp, err := CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), cmm, m, cal, 8, WithCheckpoint(cp)); err != nil {
		t.Fatal(err)
	}

	re, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), strassen, m, cal, 8, WithCheckpoint(re)); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("other program on cmm WAL = %v, want ErrCheckpointMismatch", err)
	}
	re, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), cmm, m, cal, 16, WithCheckpoint(re)); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("other system size on p=8 WAL = %v, want ErrCheckpointMismatch", err)
	}
}

// The calibration fit checkpoints and restores: a resumed calibration
// is restored from the WAL (one Resume event) and drives the rest of
// the pipeline to a bit-identical result.
func TestCalibrationCheckpointRoundTrip(t *testing.T) {
	m := NewCM5(64)
	path := filepath.Join(t.TempDir(), "run.wal")
	cp, err := CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cal1, err := CalibrateContext(context.Background(), m, WithCheckpoint(cp))
	if err != nil {
		t.Fatal(err)
	}

	re, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewEventRecorder()
	cal2, err := CalibrateContext(context.Background(), m, WithCheckpoint(re), WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	resumed := false
	for _, e := range rec.Events() {
		if r, ok := e.(obs.Resume); ok && r.Stage == "calibrate" {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("second calibration was recomputed, not restored")
	}

	p1, err := ComplexMatMul(32, cal1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ComplexMatMul(32, cal2)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunContext(context.Background(), p1, m, cal1, 8)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunContext(context.Background(), p2, m, cal2, 8)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalRuns(t, "cmm32", 8, p1, r1, r2)
}

// Checkpointed recovery: a faulted run that replans mid-flight commits
// its salvage state, and a resume replays the same recovery, validates
// the salvage record bit for bit, and lands on the identical result.
func TestCheckpointedRecoverySalvage(t *testing.T) {
	cal := testCal(t)
	p := buildProgram(t, cal, "cmm32")
	m := NewCM5(8)
	hint := cleanMakespan(t, p, m, cal, 8)

	for seed := uint64(1); seed <= 8; seed++ {
		plan, err := RandomFaultPlan(seed, FaultRandOptions{
			Procs: 8, MakespanHint: hint, ProcFails: 1, MsgDelays: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("run-%d.wal", seed))
		cp, err := CreateCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunContext(context.Background(), p, m, cal, 8,
			WithFaultPlan(plan), WithRecovery(2), WithCheckpoint(cp))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !ref.Recovered {
			continue
		}
		salvaged := false
		for _, s := range cp.Stages() {
			if s == "salvage-1" {
				salvaged = true
			}
		}
		if !salvaged {
			t.Fatalf("seed %d: recovered run committed no salvage stage: %v", seed, cp.Stages())
		}

		re, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewEventRecorder()
		got, err := RunContext(context.Background(), p, m, cal, 8,
			WithFaultPlan(plan), WithRecovery(2), WithCheckpoint(re), WithObserver(rec))
		if err != nil {
			t.Fatalf("seed %d resume: %v", seed, err)
		}
		mustVerifyExact(t, p, got)
		requireIdenticalRuns(t, "cmm32", 8, p, ref, got)
		wantResumes := map[string]bool{"alloc": false, "sched": false, "salvage-1": false, "done": false}
		for _, e := range rec.Events() {
			if r, ok := e.(obs.Resume); ok {
				if _, tracked := wantResumes[r.Stage]; tracked {
					wantResumes[r.Stage] = true
				}
			}
		}
		for stage, seen := range wantResumes {
			if !seen {
				t.Fatalf("seed %d: resumed run recomputed stage %q instead of restoring/validating it", seed, stage)
			}
		}
		return
	}
	t.Fatal("no seed exercised the recovery path")
}

// A resume recomputes each salvage and refuses one whose encoding
// differs from the committed record: here the log's salvage-1 has one
// restored element's lowest bit flipped, and the resume must fail with
// ErrCheckpointMismatch instead of resuming from either state.
func TestResumedSalvageDivergenceRefused(t *testing.T) {
	cal := testCal(t)
	p := buildProgram(t, cal, "cmm32")
	m := NewCM5(8)
	hint := cleanMakespan(t, p, m, cal, 8)

	for seed := uint64(1); seed <= 8; seed++ {
		plan, err := RandomFaultPlan(seed, FaultRandOptions{
			Procs: 8, MakespanHint: hint, ProcFails: 1, MsgDelays: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "run.wal")
		cp, err := CreateCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithFaultPlan(plan), WithRecovery(2)}
		if _, err := RunContext(context.Background(), p, m, cal, 8, append(opts, WithCheckpoint(cp))...); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		log, err := ckpt.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		forgedPath := filepath.Join(dir, "forged.wal")
		forged, err := ckpt.Create(forgedPath)
		if err != nil {
			t.Fatal(err)
		}
		flipped := false
		for _, r := range log.Records() {
			payload := r.Payload
			if r.Stage == "salvage-1" {
				var s ckpt.SalvageState
				if err := json.Unmarshal(payload, &s); err != nil {
					t.Fatal(err)
				}
				names := make([]string, 0, len(s.Arrays))
				for name := range s.Arrays {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					if data := s.Arrays[name].Data; len(data) > 0 {
						data[0] = math.Float64frombits(math.Float64bits(data[0]) ^ 1)
						flipped = true
						break
					}
				}
				if payload, err = ckpt.EncodeSalvage(s); err != nil {
					t.Fatal(err)
				}
			}
			if err := forged.Commit(r.Stage, payload); err != nil {
				t.Fatal(err)
			}
		}
		if !flipped {
			continue // no recovery, or a salvage that restored nothing
		}
		re, err := LoadCheckpoint(forgedPath)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunContext(context.Background(), p, m, cal, 8, append(opts, WithCheckpoint(re))...)
		if !errors.Is(err, ErrCheckpointMismatch) || !strings.Contains(err.Error(), "salvage-1") {
			t.Fatalf("seed %d: resume over a flipped salvage-1 = %v, want ErrCheckpointMismatch naming salvage-1", seed, err)
		}
		return
	}
	t.Fatal("no seed committed a salvage with a restored array")
}
