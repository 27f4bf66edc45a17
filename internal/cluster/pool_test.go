package cluster

import (
	"fmt"
	"slices"
	"testing"
)

// fixedRouter answers every placement with the same partition.
type fixedRouter []int

func (r fixedRouter) Route(RouteContext) []int { return append([]int(nil), r...) }

// testPool is an 8-processor pool with job "x" holding {0, 1} and
// processor 3 retired: its free list is {2, 4, 5, 6, 7}.
func testPool(t *testing.T) *Pool {
	t.Helper()
	p, err := NewPool(8, RouterRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Place("x", 2); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("round-robin's first placement = %v, want [0 1]", got)
	}
	p.Retire(3)
	if got := p.Free(); !slices.Equal(got, []int{2, 4, 5, 6, 7}) {
		t.Fatalf("free list = %v, want [2 4 5 6 7]", got)
	}
	return p
}

// TestPoolRouterFallback: a router answer that is not a partition of
// grant distinct free processors is replaced by the first-free prefix;
// a valid answer is kept, sorted.
func TestPoolRouterFallback(t *testing.T) {
	const grant = 4
	prefix := []int{2, 4, 5, 6}
	invalid := []struct {
		name   string
		answer []int
	}{
		{"duplicate", []int{2, 2, 4, 5}},
		{"owned", []int{0, 4, 5, 6}},
		{"dead", []int{3, 4, 5, 6}},
		{"out-of-range", []int{4, 5, 6, 99}},
		{"too-many", []int{2, 4, 5, 6, 7}},
		{"too-few", []int{7}},
		{"two-of-four", []int{7, 5}},
		{"empty", nil},
	}
	for _, tc := range invalid {
		p := testPool(t)
		p.router = fixedRouter(tc.answer)
		got := p.Place("j", grant)
		if !slices.Equal(got, prefix) {
			t.Errorf("%s answer %v: placed %v, want the first-free prefix %v",
				tc.name, tc.answer, got, prefix)
		}
		for _, q := range got {
			if p.owner[q] != "j" {
				t.Errorf("%s: processor %d owned by %q, want j", tc.name, q, p.owner[q])
			}
		}
		if free := p.Free(); !slices.Equal(free, []int{7}) {
			t.Errorf("%s: free list after placement = %v, want [7]", tc.name, free)
		}
	}
	p := testPool(t)
	p.router = fixedRouter{7, 6, 5, 4}
	if got := p.Place("j", grant); !slices.Equal(got, []int{4, 5, 6, 7}) {
		t.Errorf("valid answer: placed %v, want [4 5 6 7]", got)
	}
}

// TestPoolRetiredNeverFree: a retired processor leaves the free list and
// the alive count for good, whether released by the job that held it
// or retired again.
func TestPoolRetiredNeverFree(t *testing.T) {
	p, err := NewPool(4, RouterRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	held := p.Place("a", 4)
	if !p.Retire(held[3]) {
		t.Fatal("Retire of a live processor reported it already dead")
	}
	p.Release(held)
	if p.Retire(3) {
		t.Fatal("second Retire reported a fresh death")
	}
	if got := p.Free(); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("free list = %v, want [0 1 2]", got)
	}
	if n := p.Alive(); n != 3 {
		t.Fatalf("alive = %d, want 3", n)
	}
	if got := p.Place("b", 3); slices.Contains(got, 3) {
		t.Fatalf("placement %v reuses retired processor 3", got)
	}
}

// TestPoolChargeSteersLeastLoaded: busy time charged when a grant is
// released is what least-loaded routes by on the next placement.
func TestPoolChargeSteersLeastLoaded(t *testing.T) {
	p, err := NewPool(4, RouterLeastLoaded)
	if err != nil {
		t.Fatal(err)
	}
	place := func(id string, want []int, seconds float64) {
		t.Helper()
		got := p.Place(id, 2)
		if !slices.Equal(got, want) {
			t.Fatalf("job %s placed on %v, want %v", id, got, want)
		}
		p.Charge(got, seconds)
		p.Release(got)
	}
	place("a", []int{0, 1}, 5) // all idle: ties break by index
	place("b", []int{2, 3}, 1) // 0 and 1 carry 5 s
	place("c", []int{2, 3}, 1) // 2 and 3 carry 1 s, still the least
	place("d", []int{2, 3}, 4) // 2 s against 5 s
	place("e", []int{0, 1}, 0) // 6 s against 5 s
}

// TestPoolRoundRobinRotates: round-robin starts each placement one
// position further along the free list, wrapping around it, so
// successive partitions spread over the pool instead of piling onto its
// lowest processors.
func TestPoolRoundRobinRotates(t *testing.T) {
	p, err := NewPool(4, RouterRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	// Released after each placement: the start walks 0, 1, 2, 3, 0.
	for i, want := range [][]int{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}} {
		got := p.Place(fmt.Sprint("r", i), 3)
		if !slices.Equal(got, want) {
			t.Fatalf("placement %d = %v, want %v", i, got, want)
		}
		p.Release(got)
	}

	// Held: each placement rotates through what the earlier ones left.
	p, err = NewPool(8, RouterRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]int{{0, 1}, {3, 4}, {6, 7}, {2, 5}} {
		if got := p.Place(fmt.Sprint("h", i), 2); !slices.Equal(got, want) {
			t.Fatalf("held placement %d = %v, want %v", i, got, want)
		}
	}
	if free := p.Free(); len(free) != 0 {
		t.Fatalf("free list after four 2-processor placements = %v, want empty", free)
	}
}

// TestPoolBestFitPlacesLowestFree: the grant size is fixed before
// routing, so best-fit places the lowest free processors, skipping held
// and retired ones and ignoring busy time.
func TestPoolBestFitPlacesLowestFree(t *testing.T) {
	p, err := NewPool(8, RouterBestFit)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Place("a", 3)
	if !slices.Equal(a, []int{0, 1, 2}) {
		t.Fatalf("job a placed on %v, want [0 1 2]", a)
	}
	if got := p.Place("b", 2); !slices.Equal(got, []int{3, 4}) {
		t.Fatalf("job b placed on %v, want [3 4]", got)
	}
	p.Charge(a, 10)
	p.Release(a)
	p.Retire(1)
	if got := p.Place("c", 4); !slices.Equal(got, []int{0, 2, 5, 6}) {
		t.Fatalf("job c placed on %v, want [0 2 5 6]", got)
	}
}
