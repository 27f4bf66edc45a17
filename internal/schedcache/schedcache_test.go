package schedcache

import (
	"fmt"
	"sync"
	"testing"
)

func entry(n int, phi float64) Entry {
	e := Entry{
		PCanon:     make([]float64, n),
		Phi:        phi,
		AllocCanon: make([]int, n),
		Nodes:      make([]NodeSched, n),
		ProcsTotal: 8, PB: 4, Makespan: phi * 2, Policy: 1,
	}
	for i := 0; i < n; i++ {
		e.PCanon[i] = float64(i) + phi
		e.AllocCanon[i] = i + 1
		e.Nodes[i] = NodeSched{Start: float64(i), Finish: float64(i + 1), Procs: []int{i}}
	}
	return e
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(4, 1)
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	want := entry(3, 1.5)
	c.Put("k", want)
	got, ok := c.Get("k")
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Phi != want.Phi || got.Makespan != want.Makespan || got.PB != want.PB ||
		got.ProcsTotal != want.ProcsTotal || got.Policy != want.Policy {
		t.Fatalf("scalar mismatch: got %+v want %+v", got, want)
	}
	for i := range want.PCanon {
		if got.PCanon[i] != want.PCanon[i] || got.AllocCanon[i] != want.AllocCanon[i] {
			t.Fatalf("alloc mismatch at %d", i)
		}
		if got.Nodes[i].Start != want.Nodes[i].Start ||
			got.Nodes[i].Finish != want.Nodes[i].Finish || got.Nodes[i].Procs[0] != want.Nodes[i].Procs[0] {
			t.Fatalf("node mismatch at %d", i)
		}
	}
	// A re-Put of the key updates the entry in place.
	c.Put("k", entry(3, 2.5))
	if got, _ := c.Get("k"); got.Phi != 2.5 || c.Len() != 1 {
		t.Fatalf("re-Put: Phi %v, Len %d; want 2.5, 1", got.Phi, c.Len())
	}
}

// Mutating what Get returned, or what was handed to Put, must not change
// the cached entry.
func TestCloneIsolation(t *testing.T) {
	c := New(4, 1)
	in := entry(2, 1.0)
	c.Put("k", in)
	in.PCanon[0] = -99
	in.Nodes[0].Procs[0] = -99

	got, _ := c.Get("k")
	if got.PCanon[0] == -99 || got.Nodes[0].Procs[0] == -99 {
		t.Fatal("Put aliased caller memory")
	}
	got.PCanon[0] = -7
	got.Nodes[0].Procs[0] = -7
	again, _ := c.Get("k")
	if again.PCanon[0] == -7 || again.Nodes[0].Procs[0] == -7 {
		t.Fatal("Get aliased cached memory")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, 1)
	c.Put("a", entry(1, 1))
	c.Put("b", entry(1, 2))
	if _, ok := c.Get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", entry(1, 3))
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestShardedCapacityAndRouting(t *testing.T) {
	c := New(8, 4)
	if c.Shards() != 4 {
		t.Fatalf("Shards = %d", c.Shards())
	}
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("key-%d", i), entry(1, float64(i)))
	}
	if n := c.Len(); n > 8 {
		t.Fatalf("Len = %d exceeds capacity 8", n)
	}
	// Every shard holds at least one entry even when capacity < shards.
	small := New(1, 4)
	for i := 0; i < 16; i++ {
		small.Put(fmt.Sprintf("k%d", i), entry(1, 0))
	}
	if n := small.Len(); n > 4 {
		t.Fatalf("per-shard minimum violated: Len = %d", n)
	}
	// Capacity 0 clamps to 1.
	zero := New(0, 1)
	zero.Put("a", entry(1, 1))
	zero.Put("b", entry(1, 2))
	if n := zero.Len(); n != 1 {
		t.Fatalf("capacity 0: Len = %d, want 1", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(32, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%d", (w*7+i)%16)
				c.Put(k, entry(2, float64(i)))
				if e, ok := c.Get(k); ok && len(e.PCanon) != 2 {
					t.Errorf("corrupt entry under %s", k)
				}
			}
		}(w)
	}
	wg.Wait()
}
