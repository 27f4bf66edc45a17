package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"paradigm/internal/bounds"
	"paradigm/internal/obs"
)

// TestBoundaryTieIsNotDecidedByTheLastBit: a node whose continuous
// allocation is a rounding boundary up to the last bit — exp(log p) at the
// top of a box with p = 1.5·2^k, or a 6 anywhere on a larger machine —
// gets the same allocation whichever side of the boundary libm's rounding
// puts it on. (The other branch is given the whole machine so that the
// boundary node is the critical one: between two roundings with equal
// T_psa the plain rule still decides.)
func TestBoundaryTieIsNotDecidedByTheLastBit(t *testing.T) {
	g := forkJoinGraph(0.3)
	for _, c := range []struct {
		procs int
		at    float64
	}{
		{3, 3}, {6, 6}, {12, 12}, {24, 24}, {48, 48}, // clamped at the box top
		{64, 6}, {64, 24}, {23, 6}, // a boundary inside a larger machine
	} {
		below, above := math.Nextafter(c.at, 0), math.Nextafter(c.at, math.Inf(1))
		if bounds.RoundPow2(below, 0) == bounds.RoundPow2(above, 0) {
			t.Fatalf("%v is not a rounding boundary", c.at)
		}
		var got [2]*Schedule
		for k, p := range []float64{below, above} {
			s, err := Run(g, cm5Fit, []float64{1, p, float64(c.procs), 1}, c.procs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got[k] = s
		}
		if !reflect.DeepEqual(got[0].Alloc, got[1].Alloc) || got[0].Makespan != got[1].Makespan {
			t.Errorf("p=%d, node at %v: allocation %v (T_psa %v) one ulp below, %v (%v) one ulp above",
				c.procs, c.at, got[0].Alloc, got[0].Makespan, got[1].Alloc, got[1].Makespan)
		}
	}
}

// TestBandLeavesSkipRoundingAndExplicitPBAlone: SkipRounding never
// consults the band, and an explicit PB bounds both roundings of an
// in-band node exactly as it bounds the plain one.
func TestBandLeavesSkipRoundingAndExplicitPBAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g := randomMDG(rng, 8)
		n := g.NumNodes()
		cont := make([]float64, n)
		for i := range cont {
			cont[i] = []float64{1.5, 3, 6, 12}[rng.Intn(4)] * (1 + 0.008*(rng.Float64()-0.5))
		}
		for _, opts := range []Options{{SkipRounding: true}, {SkipRounding: true, PB: 4}, {PB: 1}, {PB: 2}} {
			pb := opts.PB
			if pb == 0 {
				pb, _, _ = bounds.OptimalPB(16)
			}
			plain, err := RoundAndBound(cont, 16, pb, opts.SkipRounding, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := PSA(g, cm5Fit, plain, 16, opts.Policy)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(g, cm5Fit, cont, 16, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.PB != pb || got.Makespan > want.Makespan {
				t.Fatalf("trial %d %+v: PB %d T_psa %v, plain rounding PB %d T_psa %v", trial, opts, got.PB, got.Makespan, pb, want.Makespan)
			}
			// Under SkipRounding, and wherever the bound leaves the two
			// roundings equal (PB 1 always does), nothing may change.
			if opts.SkipRounding || pb == 1 {
				if !reflect.DeepEqual(got.Alloc, plain) || !reflect.DeepEqual(got.Entries, want.Entries) {
					t.Fatalf("trial %d %+v: schedule differs from the plain rounding's", trial, opts)
				}
			}
			for i, a := range got.Alloc {
				if a > pb {
					t.Fatalf("trial %d %+v: node %d got %d > PB", trial, opts, i, a)
				}
			}
		}
	}
}

// roundRecorder keeps the PSARound events of a run.
type roundRecorder struct{ rounds []obs.PSARound }

func (r *roundRecorder) Observe(e obs.Event) {
	if ev, ok := e.(obs.PSARound); ok {
		r.rounds = append(r.rounds, ev)
	}
}

// TestPSARoundReportsTheChosenRounding: two parallel branches at 6.01 of
// 8 processors round to 8 each and serialize; the band lets one (or both)
// take 4 and run side by side, and the events say so.
func TestPSARoundReportsTheChosenRounding(t *testing.T) {
	g := forkJoinGraph(0.05)
	cont := []float64{1, 6.01, 6.01, 1}
	plainAlloc, err := RoundAndBound(cont, 8, 8, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := PSA(g, cm5Fit, plainAlloc, 8, LowestEST)
	if err != nil {
		t.Fatal(err)
	}
	var rec roundRecorder
	s, err := Run(g, cm5Fit, cont, 8, Options{PB: 8, Observer: &rec})
	if err != nil {
		t.Fatal(err)
	}
	if !(s.Makespan < plain.Makespan) {
		t.Fatalf("banded T_psa %v, plain %v: the band should have let the branches run side by side", s.Makespan, plain.Makespan)
	}
	if len(rec.rounds) != len(cont) {
		t.Fatalf("%d PSARound events for %d nodes", len(rec.rounds), len(cont))
	}
	flipped := 0
	for i, ev := range rec.rounds {
		if ev.Node != i || ev.Continuous != cont[i] || ev.Final != s.Alloc[i] || ev.Rounded != s.Alloc[i] || ev.Clipped {
			t.Errorf("node %d: event %+v, schedule allocation %d", i, ev, s.Alloc[i])
		}
		if s.Alloc[i] != plainAlloc[i] {
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("no node was rounded across its boundary")
	}
}
