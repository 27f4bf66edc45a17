package alloc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"paradigm/internal/costmodel"
	"paradigm/internal/mdg"
	"paradigm/internal/obs"
	"paradigm/internal/par"
)

func TestCacheExactHitReplaysByteIdentical(t *testing.T) {
	g := forkJoin(0.9)
	cache := NewCache(8)
	opts := Options{Cache: cache}
	cold, err := Solve(g, cm5Fit, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheOutcome != "miss" || cold.Backend != "anneal" {
		t.Fatalf("cold solve: outcome %q backend %q", cold.CacheOutcome, cold.Backend)
	}
	warm, err := Solve(g, cm5Fit, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheOutcome != "hit" || warm.Backend != "cache" {
		t.Fatalf("warm solve: outcome %q backend %q", warm.CacheOutcome, warm.Backend)
	}
	if warm.Phi != cold.Phi || warm.Ap != cold.Ap || warm.Cp != cold.Cp {
		t.Fatalf("replayed objectives differ: %+v vs %+v", warm, cold)
	}
	for i := range cold.P {
		if warm.P[i] != cold.P[i] {
			t.Fatalf("P[%d]: replay %v != solve %v", i, warm.P[i], cold.P[i])
		}
	}
	if warm.Solver.Iters != 0 {
		t.Fatal("a replayed hit must not report solver work")
	}
}

func TestCacheHitOnRelabeledGraph(t *testing.T) {
	g := forkJoin(0.8)
	n := g.NumNodes()
	perm := make([]mdg.NodeID, n)
	for i := range perm {
		perm[i] = mdg.NodeID(i)
	}
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	g2, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCache(8)
	opts := Options{Cache: cache}
	cold, err := Solve(g, cm5Fit, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(g2, cm5Fit, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheOutcome != "hit" {
		t.Fatalf("relabeled graph: outcome %q, want hit (canonical key must be relabel-invariant)", warm.CacheOutcome)
	}
	// Relabel maps node i of g to node perm[i] of g2, so the replayed
	// allocation must follow the same permutation exactly.
	for i := range cold.P {
		if warm.P[perm[i]] != cold.P[i] {
			t.Fatalf("replayed allocation not permuted: P2[%d] = %v, want P[%d] = %v",
				perm[i], warm.P[perm[i]], i, cold.P[i])
		}
	}
}

// TestCacheKeySeparatesSolveShape: a primed entry answers one question
// only. The same graph at another machine size, cost model or objective
// must be its own cold solve, not a replay.
func TestCacheKeySeparatesSolveShape(t *testing.T) {
	g := forkJoin(0.9)
	cache := NewCache(8)
	if _, err := Solve(g, cm5Fit, 16, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	other := cm5Fit
	other.Transfer.Tps *= 2
	for _, c := range []struct {
		name  string
		model costmodel.Model
		procs int
		opts  Options
	}{
		{"procs", cm5Fit, 32, Options{}},
		{"model", other, 16, Options{}},
		{"ignore-transfers", cm5Fit, 16, Options{IgnoreTransfers: true}},
	} {
		c.opts.Cache = cache
		res, err := Solve(g, c.model, c.procs, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheOutcome != "miss" {
			t.Fatalf("%s changed: outcome %q, want miss", c.name, res.CacheOutcome)
		}
	}
}

// TestCacheNearHitSeedsDifferentProcs: an entry solved for the same graph
// at another machine size once seeded the solve as its start point. It
// seeds nothing now: the solve at the new size is a miss whose allocation
// is the cold solve's, bit for bit.
func TestCacheNearHitSeedsDifferentProcs(t *testing.T) {
	g := forkJoin(0.9)
	cache := NewCache(8)
	opts := Options{Cache: cache}
	if _, err := Solve(g, cm5Fit, 16, opts); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, cm5Fit, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheOutcome != "miss" || res.Backend != "anneal" {
		t.Fatalf("different procs: outcome %q backend %q, want miss/anneal", res.CacheOutcome, res.Backend)
	}
	cold, err := Solve(g, cm5Fit, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi != cold.Phi || res.Ap != cold.Ap || res.Cp != cold.Cp {
		t.Fatalf("primed-cache objectives %+v differ from cold %+v", res, cold)
	}
	for i := range cold.P {
		if res.P[i] != cold.P[i] {
			t.Fatalf("P[%d] = %v, want cold %v", i, res.P[i], cold.P[i])
		}
	}
}

// TestCacheSeededSolveDeterministicAcrossWidths primes a fresh cache
// identically per width at one machine size and checks the solve at
// another size returns byte-identical allocations at any worker width.
func TestCacheSeededSolveDeterministicAcrossWidths(t *testing.T) {
	g := forkJoin(0.9)
	var base Result
	for wi, width := range []string{"1", "4", ""} {
		t.Setenv(par.EnvWorkers, width)
		cache := NewCache(8)
		opts := Options{Cache: cache}
		if _, err := Solve(g, cm5Fit, 16, opts); err != nil {
			t.Fatal(err)
		}
		res, err := Solve(g, cm5Fit, 32, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheOutcome != "miss" {
			t.Fatalf("width %q: outcome %q, want miss", width, res.CacheOutcome)
		}
		if wi == 0 {
			base = res
			continue
		}
		if res.Phi != base.Phi {
			t.Fatalf("width %q: Φ %v vs %v", width, res.Phi, base.Phi)
		}
		for i := range res.P {
			if res.P[i] != base.P[i] {
				t.Fatalf("width %q: P[%d] differs", width, i)
			}
		}
	}
}

// TestCacheExactOnlyIgnoresNearHits: the deprecated CacheExactOnly field
// has no effect. With or without it, a primed entry at another machine
// size leaves the solve cold, and an entry stored under one setting is
// replayed under the other, because the key does not carry the field.
func TestCacheExactOnlyIgnoresNearHits(t *testing.T) {
	g := forkJoin(0.9)
	cold, err := Solve(g, cm5Fit, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, exactOnly := range []bool{true, false} {
		cache := NewCache(8)
		opts := Options{Cache: cache, CacheExactOnly: exactOnly}
		if _, err := Solve(g, cm5Fit, 16, opts); err != nil {
			t.Fatal(err)
		}
		res, err := Solve(g, cm5Fit, 32, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheOutcome != "miss" {
			t.Fatalf("CacheExactOnly=%v: outcome %q, want miss", exactOnly, res.CacheOutcome)
		}
		if res.Phi != cold.Phi {
			t.Fatalf("CacheExactOnly=%v: Φ %v, want cold %v", exactOnly, res.Phi, cold.Phi)
		}
		for i := range cold.P {
			if res.P[i] != cold.P[i] {
				t.Fatalf("CacheExactOnly=%v: P[%d] = %v, want cold %v", exactOnly, i, res.P[i], cold.P[i])
			}
		}
		crossed, err := Solve(g, cm5Fit, 32, Options{Cache: cache, CacheExactOnly: !exactOnly})
		if err != nil {
			t.Fatal(err)
		}
		if crossed.CacheOutcome != "hit" || crossed.Backend != BackendCache {
			t.Fatalf("CacheExactOnly=%v: outcome %q backend %q, want hit/cache", !exactOnly, crossed.CacheOutcome, crossed.Backend)
		}
	}
}

// TestCacheKeysExactVersusNear: the shape key (everything but the machine
// size) unifies processor counts and separates solve options, and the
// cache's exact key adds the processor count, so another size misses.
func TestCacheKeysExactVersusNear(t *testing.T) {
	hash := "deadbeef"
	s16 := SolveShapeKey(hash, cm5Fit, Options{})
	if s16 != SolveShapeKey(hash, cm5Fit, Options{CacheExactOnly: true}) {
		t.Fatal("shape keys must not depend on the deprecated CacheExactOnly")
	}
	if s16 == SolveShapeKey(hash, cm5Fit, Options{IgnoreTransfers: true}) {
		t.Fatal("shape keys must separate solve options")
	}
	g := forkJoin(0.9)
	cache := NewCache(8)
	for _, c := range []struct {
		procs int
		want  string
	}{{16, "miss"}, {32, "miss"}, {16, "hit"}, {32, "hit"}} {
		res, err := Solve(g, cm5Fit, c.procs, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheOutcome != c.want {
			t.Fatalf("procs %d: outcome %q, want %q", c.procs, res.CacheOutcome, c.want)
		}
	}
}

func TestCacheEmitsObsEvents(t *testing.T) {
	g := forkJoin(0.9)
	cache := NewCache(8)
	rec := obs.NewRecorder()
	opts := Options{Cache: cache, Observer: rec}
	if _, err := Solve(g, cm5Fit, 16, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(g, cm5Fit, 16, opts); err != nil {
		t.Fatal(err)
	}
	var outcomes []string
	var backends []string
	for _, e := range rec.Events() {
		switch ev := e.(type) {
		case obs.AllocCache:
			outcomes = append(outcomes, ev.Outcome)
		case obs.AllocDone:
			backends = append(backends, ev.Backend)
		}
	}
	if len(outcomes) != 2 || outcomes[0] != "miss" || outcomes[1] != "hit" {
		t.Fatalf("cache outcomes = %v, want [miss hit]", outcomes)
	}
	if len(backends) != 2 || backends[0] != "anneal" || backends[1] != "cache" {
		t.Fatalf("solve backends = %v, want [anneal cache]", backends)
	}
}

// TestCacheKeyIgnoresBackendName: every backend name runs the same exact
// solve, so an "anneal" or "admm" solve is answered by the entry an auto
// solve stored — a hit replaying its P, Φ, A_p and C_p bit for bit — and
// the shape key is one per program.
func TestCacheKeyIgnoresBackendName(t *testing.T) {
	g := forkJoin(0.9)
	cache := NewCache(8)
	cold, err := Solve(g, cm5Fit, 16, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{BackendAnneal, BackendADMM} {
		if SolveShapeKey("h", cm5Fit, Options{Backend: b}) != SolveShapeKey("h", cm5Fit, Options{}) {
			t.Fatalf("backend %q keys its own entry", b)
		}
		res, err := Solve(g, cm5Fit, 16, Options{Backend: b, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheOutcome != "hit" || res.Backend != BackendCache {
			t.Fatalf("backend %q: outcome %q, backend %q; want a hit", b, res.CacheOutcome, res.Backend)
		}
		if math.Float64bits(res.Phi) != math.Float64bits(cold.Phi) || math.Float64bits(res.Ap) != math.Float64bits(cold.Ap) ||
			math.Float64bits(res.Cp) != math.Float64bits(cold.Cp) || !slices.Equal(res.P, cold.P) {
			t.Fatalf("backend %q: replay Φ %v P %v, stored Φ %v P %v", b, res.Phi, res.P, cold.Phi, cold.P)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("%d entries, want 1", cache.Len())
	}
}

// The LRU behaviour of the allocation cache: a single-shard
// schedcache.Cache of CacheEntry values.

func entry(vals ...float64) CacheEntry {
	return CacheEntry{PCanon: vals, Phi: vals[0]}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := NewCache(4)
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
	c := NewCache(4)
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
	c := NewCache(2)
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
	c := NewCache(2)
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
	c := NewCache(0)
	c.Put("a", entry(1))
	c.Put("b", entry(2))
	if c.Len() != 1 {
		t.Fatalf("capacity floor: Len = %d, want 1", c.Len())
	}
}
