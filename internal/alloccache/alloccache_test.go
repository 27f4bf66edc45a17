// Package alloccache_test pins the LRU behaviour of the allocation cache,
// alloc.NewCache: a single-shard schedcache.Cache of alloc.CacheEntry
// values. The directory holds tests only; the cache itself lives in
// internal/alloc.
package alloccache_test

import (
	"testing"

	"paradigm/internal/alloc"
)

func entry(vals ...float64) alloc.CacheEntry {
	return alloc.CacheEntry{PCanon: vals, Phi: vals[0]}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := alloc.NewCache(4)
	if _, ok := c.Get("a|p8"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a|p8", entry(1, 2, 3))
	e, ok := c.Get("a|p8")
	if !ok || e.Phi != 1 || len(e.PCanon) != 3 || e.PCanon[1] != 2 {
		t.Fatalf("round trip: %+v ok=%v", e, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCloneIsolation(t *testing.T) {
	c := alloc.NewCache(4)
	src := entry(1, 2, 3)
	c.Put("a", src)
	src.PCanon[0] = 99
	e, _ := c.Get("a")
	if e.PCanon[0] != 1 {
		t.Fatal("Put did not copy the slice")
	}
	e.PCanon[1] = 99
	e2, _ := c.Get("a")
	if e2.PCanon[1] != 2 {
		t.Fatal("Get did not copy the slice")
	}
}

func TestLRUEviction(t *testing.T) {
	c := alloc.NewCache(2)
	c.Put("a", entry(1))
	c.Put("b", entry(2))
	// Touch a so b becomes the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", entry(3))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
}

func TestPutUpdateExisting(t *testing.T) {
	c := alloc.NewCache(2)
	c.Put("a", entry(1))
	c.Put("a", entry(42))
	if c.Len() != 1 {
		t.Fatalf("Len = %d after update", c.Len())
	}
	e, _ := c.Get("a")
	if e.PCanon[0] != 42 {
		t.Fatal("update did not replace the entry")
	}
}

func TestCapacityFloor(t *testing.T) {
	c := alloc.NewCache(0)
	c.Put("a", entry(1))
	c.Put("b", entry(2))
	if c.Len() != 1 {
		t.Fatalf("capacity floor: Len = %d, want 1", c.Len())
	}
}
