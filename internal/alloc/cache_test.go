package alloc

import (
	"math/rand"
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
// only. The same graph at another machine size, under another backend,
// cost model or objective must be its own cold solve, not a replay.
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
		{"backend", cm5Fit, 16, Options{Backend: BackendADMM}},
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

// TestCacheKeySeparatesADMMOptions: the ADMM backend's result depends on
// its options, so two ADMM solves that differ only in ADMMOptions must not
// share a cache entry — each must be its own cold solve, not the other's
// replay.
func TestCacheKeySeparatesADMMOptions(t *testing.T) {
	g := layeredGraph(20, 6, 1)
	cache := NewCache(8)
	for _, o := range []Options{
		{Backend: BackendADMM, ADMM: ADMMOptions{Subgraphs: 4, MaxIters: 2, SkipPolish: true}},
		{Backend: BackendADMM},
	} {
		cold, err := Solve(g, cm5Fit, 16, o)
		if err != nil {
			t.Fatal(err)
		}
		o.Cache = cache
		got, err := Solve(g, cm5Fit, 16, o)
		if err != nil {
			t.Fatal(err)
		}
		if got.CacheOutcome != "miss" || got.Phi != cold.Phi {
			t.Fatalf("ADMM %+v: outcome %q, Φ %v; cold solve Φ %v", o.ADMM, got.CacheOutcome, got.Phi, cold.Phi)
		}
		for i := range cold.P {
			if got.P[i] != cold.P[i] {
				t.Fatalf("ADMM %+v: P[%d] = %v, cold solve %v", o.ADMM, i, got.P[i], cold.P[i])
			}
		}
	}
}
