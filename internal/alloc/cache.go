// Allocation cache (DESIGN.md §3): SolveCtx memoizes solved allocations
// in a Cache keyed by the relabel-invariant canonical MDG hash, the
// cost-model fingerprint, the solve-shaping options, and the processor
// count. A hit replays the stored allocation byte-identically without
// compiling or solving; anything else is a cold solve. Exact replay or
// nothing: the solved allocation is a pure function of (graph, model,
// options, procs) whatever the cache holds.
//
// Entries live in canonical node order, so two graphs that differ only
// by node relabeling share one entry: allocations are permuted into
// canonical order on insert and permuted back through the querying
// graph's own canonicalizing permutation on replay.

package alloc

import (
	"fmt"
	"math"
	"strings"

	"paradigm/internal/costmodel"
	"paradigm/internal/mdg"
	"paradigm/internal/schedcache"
)

// CacheEntry is one solved allocation in canonical node order.
type CacheEntry struct {
	// PCanon holds the continuous per-node allocation permuted into
	// canonical order: PCanon[perm[i]] = P[i] for the canonicalizing
	// perm of the solved graph.
	PCanon []float64
	// Phi, Ap, Cp are the exact objective values of the stored solve.
	Phi, Ap, Cp float64
}

// Cache is the allocation cache: a bounded LRU from exact keys to solved
// allocations, safe for concurrent solves sharing it.
type Cache = schedcache.Cache[CacheEntry]

// NewCache returns an empty allocation cache holding at most capacity
// entries (minimum 1).
func NewCache(capacity int) *Cache {
	return schedcache.NewOf(capacity, 1, func(e CacheEntry) CacheEntry {
		e.PCanon = append([]float64(nil), e.PCanon...)
		return e
	})
}

// SolveShapeKey is the key of everything that shapes a solved allocation
// except the machine size: the canonical graph hash (node α/τ and edge
// transfers, names excluded), the transfer-parameter fingerprint, and the
// transfer ablation. Every backend name runs the same exact solve, which
// has no tunables, so the backend is not part of the key. The allocation
// cache's key appends the processor
// count, and the pipeline's schedule cache appends its schedule-shaping
// options and then the processor count, so the two caches cannot disagree
// about what a solve depends on.
func SolveShapeKey(hash string, model costmodel.Model, opts Options) string {
	var b strings.Builder
	b.WriteString(hash)
	b.WriteByte('|')
	t := model.Transfer
	for _, v := range []float64{t.Tss, t.Tps, t.Tsr, t.Tpr, t.Tn} {
		fmt.Fprintf(&b, "%016x", math.Float64bits(v))
	}
	if opts.IgnoreTransfers {
		b.WriteString("|nt")
	}
	return b.String()
}

// entryFromResult permutes a solved allocation into canonical order for
// storage: perm[i] is the canonical rank of original node i.
func entryFromResult(res Result, perm []mdg.NodeID) CacheEntry {
	pc := make([]float64, len(res.P))
	for i, rank := range perm {
		pc[rank] = res.P[i]
	}
	return CacheEntry{PCanon: pc, Phi: res.Phi, Ap: res.Ap, Cp: res.Cp}
}

// resultFromEntry replays a cached allocation into the querying graph's
// node order. Solver diagnostics are zero — nothing was solved.
func resultFromEntry(e CacheEntry, perm []mdg.NodeID) Result {
	res := Result{P: make([]float64, len(e.PCanon)), Phi: e.Phi, Ap: e.Ap, Cp: e.Cp}
	for i, rank := range perm {
		res.P[i] = e.PCanon[rank]
	}
	return res
}
