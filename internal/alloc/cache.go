// Warm-start allocation cache (DESIGN.md §12): SolveCtx memoizes solved
// allocations in an alloccache.Cache keyed by the relabel-invariant
// canonical MDG hash, the cost-model fingerprint, the solve-shaping
// options, and the processor count. An exact hit replays the stored
// allocation byte-identically without compiling or solving. A near hit
// — same canonical program, different machine size — rescales the
// stored allocation into a log-space warm start, averages it over each
// automorphism orbit into the solve's orbit coordinates (problem.project),
// and solves from there in place of the box midpoint (alloc.go,
// solveWithFallback).
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

	"paradigm/internal/alloccache"
	"paradigm/internal/costmodel"
	"paradigm/internal/mdg"
)

// SolveShapeKey is the key of everything that shapes a solved allocation
// except the machine size: the canonical graph hash (node α/τ and edge
// transfers, names excluded), the transfer-parameter fingerprint, and the
// solve options (the backend and, for the ADMM backend, every ADMMOptions
// field, the transfer ablation and the cache mode). The default backend's
// exact solve has no tunables to key on. It is the allocation cache's near
// key; the exact key appends the processor count, and the pipeline's
// schedule cache appends its schedule-shaping options and then the
// processor count, so the two caches cannot disagree about what a solve
// depends on.
func SolveShapeKey(hash string, model costmodel.Model, opts Options) string {
	var b strings.Builder
	b.WriteString(hash)
	b.WriteByte('|')
	t := model.Transfer
	for _, v := range []float64{t.Tss, t.Tps, t.Tsr, t.Tpr, t.Tn} {
		fmt.Fprintf(&b, "%016x", math.Float64bits(v))
	}
	fmt.Fprintf(&b, "|b%s", opts.Backend)
	if opts.Backend == BackendADMM {
		a := opts.ADMM
		fmt.Fprintf(&b, "|s%d|i%d|%016x|%016x|%016x|%016x|sp%t",
			a.Subgraphs, a.MaxIters, math.Float64bits(a.Rho), math.Float64bits(a.Alpha),
			math.Float64bits(a.AbsTol), math.Float64bits(a.RelTol), a.SkipPolish)
	}
	if opts.IgnoreTransfers {
		b.WriteString("|nt")
	}
	// Exact-only and seeded solves never share entries: a seeded solve's
	// stored allocation can embed the seed's basin, which an exact-only
	// caller must not replay.
	if opts.CacheExactOnly {
		b.WriteString("|xo")
	}
	return b.String()
}

// cacheKeys derives the allocation cache's exact and near keys: the near
// key is SolveShapeKey, the exact key appends the processor count.
func cacheKeys(hash string, model costmodel.Model, procs int, opts Options) (exact, near string) {
	near = SolveShapeKey(hash, model, opts)
	return fmt.Sprintf("%s|p%d", near, procs), near
}

// entryFromResult permutes a solved allocation into canonical order for
// storage: perm[i] is the canonical rank of original node i.
func entryFromResult(res Result, perm []mdg.NodeID, procs int) alloccache.Entry {
	pc := make([]float64, len(res.P))
	for i, rank := range perm {
		pc[rank] = res.P[i]
	}
	return alloccache.Entry{PCanon: pc, Phi: res.Phi, Ap: res.Ap, Cp: res.Cp, Procs: procs}
}

// resultFromEntry replays a cached allocation into the querying graph's
// node order. Solver diagnostics are zero — nothing was solved.
func resultFromEntry(e alloccache.Entry, perm []mdg.NodeID) Result {
	res := Result{P: make([]float64, len(e.PCanon)), Phi: e.Phi, Ap: e.Ap, Cp: e.Cp}
	for i, rank := range perm {
		res.P[i] = e.PCanon[rank]
	}
	return res
}

// seedFromEntry rescales a near-hit allocation, solved for e.Procs
// processors, into a log-space warm start for a procs-processor solve:
// each p_i is scaled by the machine-size ratio and clamped into the new
// box [1, procs].
func seedFromEntry(e alloccache.Entry, perm []mdg.NodeID, procs int) []float64 {
	scale := float64(procs) / float64(e.Procs)
	seed := make([]float64, len(e.PCanon))
	for i, rank := range perm {
		p := min(max(e.PCanon[rank]*scale, 1), float64(procs))
		seed[i] = math.Log(p)
	}
	return seed
}
