package machine

import (
	"slices"
	"testing"
)

func TestCM5Validates(t *testing.T) {
	for _, procs := range []int{1, 4, 16, 32, 64} {
		if err := CM5(procs).Validate(); err != nil {
			t.Fatalf("CM5(%d): %v", procs, err)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	p := CM5(0)
	if err := p.Validate(); err == nil {
		t.Fatal("want error for 0 processors")
	}
	p = CM5(4)
	p.SendStartup = -1
	if err := p.Validate(); err == nil {
		t.Fatal("want error for negative cost")
	}
	p = CM5(4)
	p.CopyPerByte = -1e-9
	if err := p.Validate(); err == nil {
		t.Fatal("want error for negative copy cost")
	}
}

func TestWithProcs(t *testing.T) {
	p := CM5(64)
	q := p.WithProcs(16)
	if q.Procs != 16 || p.Procs != 64 {
		t.Fatalf("WithProcs mutated or failed: %d / %d", q.Procs, p.Procs)
	}
	if q.SendStartup != p.SendStartup {
		t.Fatal("WithProcs must preserve costs")
	}
}

// Survivors drops the failed processors' own table entries, not the
// last ones, and renumbers the rest in order.
func TestSurvivors(t *testing.T) {
	p := CM5(8)
	p.Speeds = []float64{2, 2, 1, 1, 1, 1, 0.5, 0.5}
	p.MemCapacity = []int64{80, 81, 82, 83, 84, 85, 86, 87}
	q := p.Survivors([]int{5, 0})
	if q.Procs != 6 || p.Procs != 8 {
		t.Fatalf("Survivors mutated or failed: %d / %d", q.Procs, p.Procs)
	}
	if !slices.Equal(q.Speeds, []float64{2, 1, 1, 1, 0.5, 0.5}) {
		t.Fatalf("survivor speeds = %v", q.Speeds)
	}
	if !slices.Equal(q.MemCapacity, []int64{81, 82, 83, 84, 86, 87}) {
		t.Fatalf("survivor capacities = %v", q.MemCapacity)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Speeds[0] != 2 || p.MemCapacity[5] != 85 {
		t.Fatal("Survivors wrote through to the original tables")
	}
	// A homogeneous profile keeps its empty tables.
	h := CM5(8).Survivors([]int{3})
	if h.Procs != 7 || h.Speeds != nil || h.MemCapacity != nil {
		t.Fatalf("homogeneous survivors = %d procs, %v, %v", h.Procs, h.Speeds, h.MemCapacity)
	}
	if !h.Equal(CM5(8).WithProcs(7)) {
		t.Fatal("a homogeneous profile's survivors differ from its resize")
	}
}

func TestCM5MessagingMagnitudes(t *testing.T) {
	// Ground truth should sit near the paper's fitted Table 2 values.
	p := CM5(64)
	if p.SendStartup < 500e-6 || p.SendStartup > 1000e-6 {
		t.Fatalf("SendStartup = %v, want ~778 µs scale", p.SendStartup)
	}
	if p.NetPerByte != 0 {
		t.Fatal("CM-5 profile must fold network time into receives (t_n = 0)")
	}
}

func TestParagonValidatesAndDiffers(t *testing.T) {
	p := Paragon(64)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NetPerByte <= 0 {
		t.Fatal("Paragon must have a real network transit term")
	}
	cm5 := CM5(64)
	if p.FMATime >= cm5.FMATime {
		t.Fatal("Paragon processors should be faster than the CM-5's")
	}
	if p.SendStartup >= cm5.SendStartup {
		t.Fatal("Paragon startups should be lower than the CM-5's")
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	p := CM5(8)
	p.JitterFrac = 0.25
	p.JitterSeed = 42
	seen := map[float64]bool{}
	for node := 0; node < 10; node++ {
		for proc := 0; proc < 8; proc++ {
			j1 := p.Jitter(node, proc)
			j2 := p.Jitter(node, proc)
			if j1 != j2 {
				t.Fatal("jitter must be deterministic")
			}
			if j1 < 1 || j1 >= 1.25 {
				t.Fatalf("jitter %v outside [1, 1.25)", j1)
			}
			seen[j1] = true
		}
	}
	if len(seen) < 40 {
		t.Fatalf("jitter not varied enough: %d distinct values", len(seen))
	}
	p.JitterFrac = 0
	if p.Jitter(3, 4) != 1 {
		t.Fatal("zero jitter must be exactly 1")
	}
	p.JitterFrac = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative jitter must fail validation")
	}
}
