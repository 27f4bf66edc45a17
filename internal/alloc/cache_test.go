package alloc

import (
	"math"
	"math/rand"
	"testing"

	"paradigm/internal/alloccache"
	"paradigm/internal/mdg"
	"paradigm/internal/obs"
	"paradigm/internal/par"
)

func TestCacheExactHitReplaysByteIdentical(t *testing.T) {
	g := forkJoin(0.9)
	cache := alloccache.New(8)
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

	cache := alloccache.New(8)
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

func TestCacheNearHitSeedsDifferentProcs(t *testing.T) {
	g := forkJoin(0.9)
	cache := alloccache.New(8)
	opts := Options{Cache: cache}
	if _, err := Solve(g, cm5Fit, 16, opts); err != nil {
		t.Fatal(err)
	}
	seeded, err := Solve(g, cm5Fit, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.CacheOutcome != "seed" {
		t.Fatalf("different procs: outcome %q, want seed", seeded.CacheOutcome)
	}
	cold, err := Solve(g, cm5Fit, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The seed replaces the midpoint as the start, and the start does not
	// move the minimum beyond TestSolveIsStartIndependent's tolerance.
	if math.Abs(seeded.Phi/cold.Phi-1) > 1e-5 {
		t.Fatalf("seeded Φ %v differs from cold Φ %v beyond the start tolerance", seeded.Phi, cold.Phi)
	}
}

// TestCacheSeededSolveDeterministicAcrossWidths primes a fresh cache
// identically per width and checks the near-hit seeded solve returns
// byte-identical allocations at any worker width.
func TestCacheSeededSolveDeterministicAcrossWidths(t *testing.T) {
	g := forkJoin(0.9)
	var base Result
	for wi, width := range []string{"1", "4", ""} {
		t.Setenv(par.EnvWorkers, width)
		cache := alloccache.New(8)
		opts := Options{Cache: cache}
		if _, err := Solve(g, cm5Fit, 16, opts); err != nil {
			t.Fatal(err)
		}
		res, err := Solve(g, cm5Fit, 32, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheOutcome != "seed" {
			t.Fatalf("width %q: outcome %q", width, res.CacheOutcome)
		}
		if wi == 0 {
			base = res
			continue
		}
		if res.Phi != base.Phi {
			t.Fatalf("width %q: seeded Φ %v vs %v", width, res.Phi, base.Phi)
		}
		for i := range res.P {
			if res.P[i] != base.P[i] {
				t.Fatalf("width %q: seeded P[%d] differs", width, i)
			}
		}
	}
}

// TestCacheExactOnlyIgnoresNearHits pins the purity contract behind
// CacheExactOnly: a primed near entry must not seed the solve, which
// therefore returns the cold allocation bit-for-bit regardless of cache
// history — the property long-lived services rely on to reproduce
// journaled result digests across restarts with a cold cache.
func TestCacheExactOnlyIgnoresNearHits(t *testing.T) {
	g := forkJoin(0.9)
	cold, err := Solve(g, cm5Fit, 32, Options{CacheExactOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	cache := alloccache.New(8)
	opts := Options{Cache: cache, CacheExactOnly: true}
	if _, err := Solve(g, cm5Fit, 16, opts); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, cm5Fit, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheOutcome != "miss" {
		t.Fatalf("exact-only near lookup: outcome %q, want miss", res.CacheOutcome)
	}
	if res.Phi != cold.Phi {
		t.Fatalf("exact-only solve diverged from cold: Φ %v vs %v", res.Phi, cold.Phi)
	}
	for i := range cold.P {
		if res.P[i] != cold.P[i] {
			t.Fatalf("exact-only P[%d] = %v, want cold %v", i, res.P[i], cold.P[i])
		}
	}
	// Exact replay still works within the mode.
	hit, err := Solve(g, cm5Fit, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit.CacheOutcome != "hit" || hit.Backend != BackendCache {
		t.Fatalf("exact-only repeat: outcome %q backend %q, want hit/cache", hit.CacheOutcome, hit.Backend)
	}
	// And entries never cross the mode boundary: a seeded-mode solve
	// must not replay an exact-only entry.
	crossed, err := Solve(g, cm5Fit, 32, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if crossed.CacheOutcome == "hit" {
		t.Fatal("seeded-mode solve replayed an exact-only entry")
	}
}

func TestCacheKeySeparatesSolveShape(t *testing.T) {
	g := forkJoin(0.9)
	cache := alloccache.New(8)
	if _, err := Solve(g, cm5Fit, 16, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	// Another backend solves differently, so it must not reuse the
	// stored entry.
	res, err := Solve(g, cm5Fit, 16, Options{Cache: cache, Backend: BackendADMM})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheOutcome == "hit" {
		t.Fatal("Backend changed but the cache replayed a stale entry")
	}
	// A different cost model must miss entirely.
	other := cm5Fit
	other.Transfer.Tps *= 2
	res, err = Solve(g, other, 16, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheOutcome != "miss" {
		t.Fatalf("model changed: outcome %q, want miss", res.CacheOutcome)
	}
	// The ablated objective solves a different program.
	res, err = Solve(g, cm5Fit, 16, Options{Cache: cache, IgnoreTransfers: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheOutcome == "hit" {
		t.Fatal("IgnoreTransfers changed but the cache replayed a stale entry")
	}
}

func TestCacheEmitsObsEvents(t *testing.T) {
	g := forkJoin(0.9)
	cache := alloccache.New(8)
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

func TestCacheKeysExactVersusNear(t *testing.T) {
	hash := "deadbeef"
	e16, n16 := cacheKeys(hash, cm5Fit, 16, Options{})
	e32, n32 := cacheKeys(hash, cm5Fit, 32, Options{})
	if e16 == e32 {
		t.Fatal("exact keys must separate processor counts")
	}
	if n16 != n32 {
		t.Fatal("near keys must unify processor counts")
	}
	_, nOther := cacheKeys(hash, cm5Fit, 16, Options{IgnoreTransfers: true})
	if nOther == n16 {
		t.Fatal("near keys must separate solve options")
	}
}

// TestCacheKeySeparatesADMMOptions: the ADMM backend's result depends on
// its options, so two ADMM solves that differ only in ADMMOptions must not
// share a cache entry — each must be its own cold solve, not the other's
// replay.
func TestCacheKeySeparatesADMMOptions(t *testing.T) {
	g := layeredGraph(20, 6, 1)
	cache := alloccache.New(8)
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
