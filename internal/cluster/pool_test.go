package cluster

import (
	"fmt"
	"slices"
	"testing"
)

// fixedRouter answers every placement with the same partition.
type fixedRouter []int

func (fixedRouter) Name() string { return "fixed" }

func (r fixedRouter) Route(Spec, RouteContext) []int { return append([]int(nil), r...) }

// testPool is an 8-processor pool with job "x" holding {0, 1} and
// processor 3 retired: its free list is {2, 4, 5, 6, 7}.
func testPool(t *testing.T) *Pool {
	t.Helper()
	p, err := NewPool(8, RouterRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Place(Spec{ID: "x"}, 2, 2, nil); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("round-robin's first placement = %v, want [0 1]", got)
	}
	p.Retire(3)
	if got := p.Free(); !slices.Equal(got, []int{2, 4, 5, 6, 7}) {
		t.Fatalf("free list = %v, want [2 4 5 6 7]", got)
	}
	return p
}

// TestPoolRouterFallback: a router answer that is not a partition of
// [min, grant] distinct free processors is replaced by the first-free
// prefix, in the loop's window mode (min < grant) and in paradigmd's
// fixed-size mode (min = grant); a valid answer is kept, sorted.
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
		{"empty", nil},
	}
	for _, minP := range []int{2, grant} {
		mode := fmt.Sprintf("min=%d grant=%d", minP, grant)
		for _, tc := range invalid {
			p := testPool(t)
			p.router = fixedRouter(tc.answer)
			got := p.Place(Spec{ID: "j"}, grant, minP, nil)
			if !slices.Equal(got, prefix) {
				t.Errorf("%s, %s answer %v: placed %v, want the first-free prefix %v",
					mode, tc.name, tc.answer, got, prefix)
			}
			for _, q := range got {
				if p.owner[q] != "j" {
					t.Errorf("%s, %s: processor %d owned by %q, want j", mode, tc.name, q, p.owner[q])
				}
			}
			if free := p.Free(); !slices.Equal(free, []int{7}) {
				t.Errorf("%s, %s: free list after placement = %v, want [7]", mode, tc.name, free)
			}
		}
		p := testPool(t)
		p.router = fixedRouter{7, 6, 5, 4}
		if got := p.Place(Spec{ID: "j"}, grant, minP, nil); !slices.Equal(got, []int{4, 5, 6, 7}) {
			t.Errorf("%s, valid answer: placed %v, want [4 5 6 7]", mode, got)
		}
	}
	// Only the window accepts a smaller partition.
	p := testPool(t)
	p.router = fixedRouter{7, 5}
	if got := p.Place(Spec{ID: "j"}, grant, 2, nil); !slices.Equal(got, []int{5, 7}) {
		t.Errorf("window, 2 of 4: placed %v, want [5 7]", got)
	}
	p = testPool(t)
	p.router = fixedRouter{7, 5}
	if got := p.Place(Spec{ID: "j"}, grant, grant, nil); !slices.Equal(got, prefix) {
		t.Errorf("fixed size, 2 of 4: placed %v, want the first-free prefix %v", got, prefix)
	}
}

// TestPoolRetiredNeverFree: a retired processor leaves the free list and
// the assignable count for good — released by the job that held it,
// reported suspect, or retired again.
func TestPoolRetiredNeverFree(t *testing.T) {
	p, err := NewPool(4, RouterRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	held := p.Place(Spec{ID: "a"}, 4, 4, nil)
	if !p.Retire(held[3]) {
		t.Fatal("Retire of a live processor reported it already dead")
	}
	p.Release(held)
	p.Suspect(3)
	if p.Retire(3) {
		t.Fatal("second Retire reported a fresh death")
	}
	if got := p.Free(); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("free list = %v, want [0 1 2]", got)
	}
	if n := p.Assignable(); n != 3 {
		t.Fatalf("assignable = %d, want 3", n)
	}
	if got := p.Place(Spec{ID: "b"}, 3, 3, nil); slices.Contains(got, 3) {
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
		got := p.Place(Spec{ID: id}, 2, 2, nil)
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
