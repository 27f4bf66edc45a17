// The cross-backend gate: the two machine-model backends — trained
// (training-sets regression) and analytical (closed-form roofline) —
// must both produce allocations the verification oracle accepts and
// must agree with each other to within a bounded Φ ratio on the paper's
// programs and a population of generated MDGs. The committed spec
// database in testdata/machines/ is linted against the built-in
// database, and a heterogeneous spec runs the whole
// allocate → schedule → simulate pipeline under the run oracle.
package paradigm

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/machine"
	"paradigm/internal/oracle"
)

// backendPair builds the two backends for the same CM-5 profile: the
// trained one from the shared test calibration, the analytical one
// straight from the constants.
func backendPair(t *testing.T) (trained, analytical MachineBackend) {
	t.Helper()
	trained = NewTrainedMachine(testCal(t))
	a, err := machine.NewAnalytical(NewCM5(64))
	if err != nil {
		t.Fatal(err)
	}
	return trained, a
}

// phiRatioInBounds fails unless got/ref lies in [1/limit, limit].
func phiRatioInBounds(t *testing.T, label string, got, ref, limit float64) {
	t.Helper()
	if ref <= 0 || got <= 0 {
		t.Fatalf("%s: non-positive Φ values %v vs %v", label, got, ref)
	}
	if r := got / ref; r > limit || r < 1/limit {
		t.Errorf("%s: Φ ratio %v outside [%v, %v] (got %v, ref %v)",
			label, r, 1/limit, limit, got, ref)
	}
}

// TestBackendDifferentialOnGeneratedMDGs holds the node parameters
// fixed (the seeded generator) and varies only the transfer surface:
// every backend's model must yield an oracle-accepted allocation, and
// the analytical surface must track the trained regression to within a
// factor of three in Φ.
func TestBackendDifferentialOnGeneratedMDGs(t *testing.T) {
	trained, analytical := backendPair(t)
	backends := []MachineBackend{trained, analytical}
	const procs = 16
	for seed := uint64(1); seed <= 50; seed++ {
		g := oracle.RandomGraph(seed, oracle.GenOptions{})
		results := make([]Allocation, len(backends))
		for i, b := range backends {
			label := fmt.Sprintf("seed %d, %s backend", seed, b.Kind())
			model := Model{Transfer: b.Transfer()}
			res, err := alloc.Solve(g, model, procs, alloc.Options{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := oracle.CheckAllocation(g, model, procs, res, oracle.Options{}); err != nil {
				t.Errorf("%s: oracle rejected allocation: %v", label, err)
			}
			results[i] = res
		}
		phiRatioInBounds(t, fmt.Sprintf("seed %d analytical vs trained", seed),
			results[1].Phi, results[0].Phi, 3)
	}
}

// TestBackendDifferentialOnPrograms runs the comparison end to end on
// the paper's two real programs: each backend supplies both the loop
// parameters (program build) and the transfer surface (allocation), so
// the Φ ratio bounds the whole estimation stack, not just one surface.
func TestBackendDifferentialOnPrograms(t *testing.T) {
	trained, analytical := backendPair(t)
	backends := []MachineBackend{trained, analytical}
	builders := []struct {
		name  string
		build func(src LoopSource) (*Program, error)
	}{
		{"cmm", func(src LoopSource) (*Program, error) { return ComplexMatMul(32, src) }},
		{"strassen", func(src LoopSource) (*Program, error) { return Strassen(32, src) }},
	}
	const procs = 16
	for _, bld := range builders {
		results := make([]Allocation, len(backends))
		for i, b := range backends {
			label := fmt.Sprintf("%s, %s backend", bld.name, b.Kind())
			p, err := bld.build(b)
			if err != nil {
				t.Fatalf("%s: build: %v", label, err)
			}
			model := Model{Transfer: b.Transfer()}
			res, err := alloc.Solve(p.G, model, procs, alloc.Options{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := oracle.CheckAllocation(p.G, model, procs, res, oracle.Options{}); err != nil {
				t.Errorf("%s: oracle rejected allocation: %v", label, err)
			}
			results[i] = res
		}
		// The analytical loop estimates sit within a factor of two of
		// the trained fits and the transfer surfaces within a factor of
		// three, so the end-to-end Φ must stay within a factor of four.
		phiRatioInBounds(t, bld.name+" analytical vs trained", results[1].Phi, results[0].Phi, 4)
	}
}

// TestTrainedBackendMatchesPositionalPipeline pins the refactor's core
// promise: driving the pipeline through the Backend interface with the
// trained implementation is byte-identical to the Machine + Calibration
// form of RunContext.
func TestTrainedBackendMatchesPositionalPipeline(t *testing.T) {
	cal := testCal(t)
	const procs = 8

	p1, err := ComplexMatMul(24, cal)
	if err != nil {
		t.Fatal(err)
	}
	positional, err := RunContext(context.Background(), p1, NewCM5(64), cal, procs)
	if err != nil {
		t.Fatal(err)
	}

	b := NewTrainedMachine(cal)
	p2, err := ComplexMatMul(24, b)
	if err != nil {
		t.Fatal(err)
	}
	viaBackend, err := RunOnContext(context.Background(), p2, b, procs)
	if err != nil {
		t.Fatal(err)
	}

	sameAlloc(t, "trained backend vs positional", viaBackend.Alloc, positional.Alloc)
	if viaBackend.Predicted != positional.Predicted || viaBackend.Actual != positional.Actual {
		t.Errorf("makespans drifted: predicted %v vs %v, actual %v vs %v",
			viaBackend.Predicted, positional.Predicted, viaBackend.Actual, positional.Actual)
	}
}

// TestHeterogeneousMachineEndToEnd runs the committed heterogeneous
// spec through the whole pipeline: the run oracle must accept the
// trace, the simulated arrays must match the sequential reference, and
// the per-processor speed table must be observable in the makespan
// (a homogeneous CM-5 of the same size finishes at a different time).
func TestHeterogeneousMachineEndToEnd(t *testing.T) {
	hetero, err := ResolveMachine("cm5-hetero8")
	if err != nil {
		t.Fatal(err)
	}
	if !hetero.SimParams().Heterogeneous() {
		t.Fatal("cm5-hetero8 spec lost its speed table")
	}

	p, err := ComplexMatMul(16, hetero)
	if err != nil {
		t.Fatal(err)
	}
	tr := &oracle.Trace{}
	res, err := RunOnContext(context.Background(), p, hetero, 8, WithObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.CheckRun(p.G, tr, res.Sim); err != nil {
		t.Errorf("run oracle rejected the heterogeneous run: %v", err)
	}
	dev, err := Verify(p, res.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if dev > 1e-9 {
		t.Errorf("heterogeneous run deviates from sequential reference by %v", dev)
	}

	homo, err := ResolveMachine("cm5")
	if err != nil {
		t.Fatal(err)
	}
	ph, err := ComplexMatMul(16, homo)
	if err != nil {
		t.Fatal(err)
	}
	homoRes, err := RunOnContext(context.Background(), ph, homo, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Actual == homoRes.Actual {
		t.Errorf("speed table invisible: heterogeneous and homogeneous runs both finish at %v", res.Actual)
	}
}

// TestCommittedMachineSpecsLint keeps testdata/machines/ and the
// built-in database in lockstep: one canonical JSON file per builtin,
// no strays, every file loading cleanly, matching its builtin's
// parameters, and byte-equal to its own canonical re-encoding.
func TestCommittedMachineSpecsLint(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "machines", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	committed := map[string]string{}
	for _, path := range paths {
		committed[filepath.Base(path)] = path
	}
	for _, name := range machine.BuiltinNames() {
		path, ok := committed[name+".json"]
		if !ok {
			t.Errorf("builtin %q has no committed spec in testdata/machines/", name)
			continue
		}
		delete(committed, name+".json")

		spec, err := machine.LoadSpec(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, err := machine.FromSpec(spec); err != nil {
			t.Errorf("%s: FromSpec: %v", path, err)
		}
		builtin, _ := machine.Builtin(name)
		if !spec.Params().Equal(builtin.Params()) {
			t.Errorf("%s: committed spec diverged from the built-in database", path)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(canon) {
			t.Errorf("%s: file is not in canonical form (run machinespec -export-dir testdata/machines)", path)
		}
	}
	for base := range committed {
		t.Errorf("testdata/machines/%s names no builtin machine", base)
	}
}
