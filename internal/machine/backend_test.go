package machine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"paradigm/internal/errs"
)

// testLoop is a minimal LoopSpec for exercising the backends without
// importing internal/kernels (which imports this package).
type testLoop struct {
	shape LoopShape
	bad   bool
}

func (l testLoop) Validate() error {
	if l.bad {
		return fmt.Errorf("test: invalid loop")
	}
	return nil
}
func (l testLoop) Shape() LoopShape                    { return l.shape }
func (l testLoop) MaxProcTime(p Params, q int) float64 { return 0 }

func TestLoopShapeKeyMatchesHistoricalFormat(t *testing.T) {
	// The trained backend's cache key predates the Backend interface;
	// calibration snapshots replay byte-identically only if Key keeps
	// the exact historical format.
	for _, tc := range []struct {
		shape LoopShape
		want  string
	}{
		{LoopShape{Op: "mul", M: 64, N: 64, K: 64}, "mul:64x64x64:linear"},
		{LoopShape{Op: "add", M: 32, N: 16}, "add:32x16x0:linear"},
		{LoopShape{Op: "mul", M: 8, N: 8, K: 8, Grid: true}, "mul:8x8x8:grid"},
	} {
		if got := tc.shape.Key(); got != tc.want {
			t.Errorf("Key(%+v) = %q, want %q", tc.shape, got, tc.want)
		}
	}
}

func TestAnalyticalBackendConformance(t *testing.T) {
	a, err := NewAnalytical(CM5(64))
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "CM5" || a.Kind() != KindAnalytical {
		t.Fatalf("identity: %s/%s", a.Name(), a.Kind())
	}
	if !a.SimParams().Equal(CM5(64)) {
		t.Error("SimParams does not round-trip the profile")
	}

	tp := a.Transfer()
	p := CM5(64)
	if tp.Tss != p.SendStartup || tp.Tps != p.SendPerByte ||
		tp.Tsr != p.RecvStartup+p.MsgMatchOverhead || tp.Tpr != p.RecvPerByte || tp.Tn != p.NetPerByte {
		t.Errorf("transfer derivation: %+v", tp)
	}
}

// analyticalShapes are the loop shapes TestAnalyticalLoopEstimates
// prices: a multiply, an add, the zero-cost "none" op and an op the
// estimator cannot price.
var analyticalShapes = []LoopShape{
	{Op: "mul", M: 64, N: 64, K: 64},
	{Op: "add", M: 64, N: 64},
	{Op: "none"},
	{Op: "transmogrify"},
}

func TestAnalyticalLoopEstimates(t *testing.T) {
	a, err := NewAnalytical(CM5(64))
	if err != nil {
		t.Fatal(err)
	}

	lp, err := a.Loop("Matrix Multiply (64x64)", testLoop{shape: analyticalShapes[0]})
	if err != nil {
		t.Fatal(err)
	}
	if lp.Tau <= 0 || lp.Alpha <= 0 || lp.Alpha >= 1 {
		t.Fatalf("multiply estimate out of range: α=%v τ=%v", lp.Alpha, lp.Tau)
	}
	// The serial multiply is dominated by the 64³ FMAs; the estimate must
	// be within a factor of two of that floor.
	work := 64 * 64 * 64 * CM5(64).FMATime
	if lp.Tau < work || lp.Tau > 2*work {
		t.Errorf("multiply τ=%v, want within [%v, %v]", lp.Tau, work, 2*work)
	}

	add, err := a.Loop("Matrix add (64x64)", testLoop{shape: analyticalShapes[1]})
	if err != nil {
		t.Fatal(err)
	}
	if add.Tau >= lp.Tau {
		t.Errorf("add τ=%v not cheaper than multiply τ=%v", add.Tau, lp.Tau)
	}

	if zero, err := a.Loop("start", testLoop{shape: analyticalShapes[2]}); err != nil || zero.Tau != 0 {
		t.Errorf("none op: %+v, %v", zero, err)
	}
	if _, err := a.Loop("bad", testLoop{shape: analyticalShapes[3]}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := a.Loop("bad", testLoop{bad: true}); err == nil {
		t.Error("invalid loop spec accepted")
	}
}

// TestSpecAndProfileAreOneBackend: the builtin cm5 spec and the CM-5
// profile it was written from are the same closed-form backend — same
// identity, constants, transfer surface and loop prices.
func TestSpecAndProfileAreOneBackend(t *testing.T) {
	s, err := Resolve("cm5")
	if err != nil {
		t.Fatal(err)
	}
	f, err := FromSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalytical(CM5(64))
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind() != a.Kind() || f.Name() != a.Name() {
		t.Errorf("identity: spec %s/%s, profile %s/%s", f.Name(), f.Kind(), a.Name(), a.Kind())
	}
	if !f.SimParams().Equal(a.SimParams()) {
		t.Error("spec and profile lower to different constants")
	}
	if f.Transfer() != a.Transfer() {
		t.Errorf("transfer: spec %+v, profile %+v", f.Transfer(), a.Transfer())
	}
	for _, sh := range analyticalShapes {
		lf, errF := f.Loop(sh.Key(), testLoop{shape: sh})
		la, errA := a.Loop(sh.Key(), testLoop{shape: sh})
		if lf != la || (errF == nil) != (errA == nil) {
			t.Errorf("%s: spec %+v (%v), profile %+v (%v)", sh.Key(), lf, errF, la, errA)
		}
	}
}

func TestAnalyticalRejectsInvalidProfile(t *testing.T) {
	if _, err := NewAnalytical(Params{Name: "x"}); err == nil {
		t.Error("zero-processor profile accepted")
	}
}

func TestDefaultTopology(t *testing.T) {
	if top := DefaultTopology("CM5", 64); top.Kind != "fat-tree" {
		t.Errorf("CM5: %+v", top)
	}
	top := DefaultTopology("Paragon", 64)
	if top.Kind != "mesh" || len(top.Dims) != 2 || top.Dims[0]*top.Dims[1] != 64 {
		t.Errorf("Paragon: %+v", top)
	}
	if top := DefaultTopology("VAX", 4); top.Kind != "" {
		t.Errorf("unknown machine got topology %+v", top)
	}
}

func TestBuiltinSpecsRoundTripCanonically(t *testing.T) {
	for _, name := range BuiltinNames() {
		s, ok := Builtin(name)
		if !ok {
			t.Fatalf("builtin %q vanished", name)
		}
		c1, err := s.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s2, err := DecodeSpec(c1)
		if err != nil {
			t.Fatalf("%s: decode canonical: %v", name, err)
		}
		c2, err := s2.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(c1) != string(c2) {
			t.Errorf("%s: canonical form not a fixed point:\n%s\nvs\n%s", name, c1, c2)
		}
		if !s2.Params().Equal(s.Params()) {
			t.Errorf("%s: params changed across the round trip", name)
		}
		if _, err := FromSpec(s2); err != nil {
			t.Errorf("%s: FromSpec: %v", name, err)
		}
	}
}

func TestDecodeSpecRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		data string
	}{
		{"syntax", `{"name":"x","procs":1`},
		{"unknown field", `{"name":"x","procs":1,"warp_factor":9}`},
		{"trailing data", `{"name":"x","procs":1}{"name":"y","procs":1}`},
		{"empty name", `{"procs":4}`},
		{"zero procs", `{"name":"x","procs":0}`},
		{"negative constant", `{"name":"x","procs":1,"fma_time":-1e-6}`},
		{"speeds length", `{"name":"x","procs":4,"speeds":[1,1]}`},
		{"zero speed", `{"name":"x","procs":2,"speeds":[1,0]}`},
		{"negative speed", `{"name":"x","procs":2,"speeds":[1,-0.5]}`},
		{"negative capacity", `{"name":"x","procs":2,"mem_capacity":[1024,-1]}`},
		{"capacity length", `{"name":"x","procs":4,"mem_capacity":[1024]}`},
		{"topology mismatch", `{"name":"x","procs":8,"topology":{"kind":"mesh","dims":[3,2]}}`},
		{"negative pinned transfer", `{"name":"x","procs":2,"transfer":{"t_ss":-1,"t_ps":0,"t_sr":0,"t_pr":0,"t_n":0}}`},
	} {
		_, err := DecodeSpec([]byte(tc.data))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, errs.ErrBadMachineSpec) {
			t.Errorf("%s: error %v does not wrap ErrBadMachineSpec", tc.name, err)
		}
	}
}

func TestResolve(t *testing.T) {
	// Builtin hit, case-insensitive.
	s, err := Resolve("CM5-Hetero8")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "CM5-hetero8" || len(s.Speeds) != 8 {
		t.Fatalf("resolved %q with %d speeds", s.Name, len(s.Speeds))
	}

	// Unknown bare name: ErrUnknownBackend naming the database.
	if _, err := Resolve("vax"); !errors.Is(err, errs.ErrUnknownBackend) {
		t.Errorf("unknown name: %v", err)
	}

	// A path resolves through LoadSpec.
	dir := t.TempDir()
	good, _ := Builtin("paragon")
	data, err := good.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "custom.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Resolve(path); err != nil || s.Name != "Paragon" {
		t.Errorf("file resolve: %v, %v", s, err)
	}
	if _, err := Resolve(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFileBackendPinnedTransfer(t *testing.T) {
	s, _ := Builtin("cm5")
	s.Transfer = &TransferSpec{Tss: 1e-3, Tps: 2e-9, Tsr: 3e-4, Tpr: 4e-9, Tn: 5e-9}
	f, err := FromSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	tp := f.Transfer()
	if tp.Tss != 1e-3 || tp.Tps != 2e-9 || tp.Tsr != 3e-4 || tp.Tpr != 4e-9 || tp.Tn != 5e-9 {
		t.Errorf("pinned surface not honoured: %+v", tp)
	}

	// Without a pin the spec's backend derives the surface from its constants.
	plain, _ := Builtin("cm5")
	fp, err := FromSpec(plain)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewAnalytical(plain.Params())
	if fp.Transfer() != a.Transfer() {
		t.Errorf("unpinned spec transfer %+v != derived %+v", fp.Transfer(), a.Transfer())
	}
}

func TestHeterogeneousParams(t *testing.T) {
	p := CM5(4)
	p.Speeds = []float64{2, 1, 1, 0.5}
	p.MemCapacity = []int64{64, 64, 32, 32}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Heterogeneous() {
		t.Error("profile with speed 2 not heterogeneous")
	}
	if p.SpeedOf(0) != 2 || p.SpeedOf(3) != 0.5 || p.SpeedOf(9) != 1 || p.SpeedOf(-1) != 1 {
		t.Error("SpeedOf")
	}

	// Resize truncates and pads.
	small := p.WithProcs(2)
	if len(small.Speeds) != 2 || small.Speeds[0] != 2 {
		t.Errorf("truncate: %+v", small.Speeds)
	}
	big := p.WithProcs(6)
	if len(big.Speeds) != 6 || big.Speeds[5] != 1 || big.MemCapacity[5] != 0 {
		t.Errorf("pad: %+v / %+v", big.Speeds, big.MemCapacity)
	}
	// Homogeneous tables stay empty across resizes.
	if h := CM5(4).WithProcs(8); len(h.Speeds) != 0 || len(h.MemCapacity) != 0 {
		t.Error("homogeneous resize materialized tables")
	}

	// Equal distinguishes the tables.
	q := p
	if !p.Equal(q) {
		t.Error("Equal(self)")
	}
	q.Speeds = []float64{2, 1, 1, 1}
	if p.Equal(q) {
		t.Error("Equal ignores speed tables")
	}
}

func TestBuiltinNamesSorted(t *testing.T) {
	names := BuiltinNames()
	if len(names) != 4 {
		t.Fatalf("builtin database has %d entries: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}
