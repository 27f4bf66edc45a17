package convex

import (
	"math"
	"slices"
)

// cholesky is a sparse LLᵀ factorisation whose ordering and pattern are
// computed once, by newCholesky, and whose values are refactored in place
// every interior-point iteration. The caller adds the matrix's lower
// triangle into val at the positions pos reports (the pattern of L holds
// the matrix's), calls factor, then solves.
type cholesky struct {
	n int
	// perm[k] is the variable eliminated k-th; iperm is its inverse.
	perm, iperm []int32
	// Column k of L (in pivot order) is val[colPtr[k]:colPtr[k+1]]: the
	// diagonal first, then the rows below it, ascending, in rowIdx.
	colPtr, rowIdx []int32
	val            []float64
	// a keeps the matrix factor last overwrote, for mul.
	a []float64
	// Row k's off-diagonal entries, by column ascending: rowCol[j] is the
	// column and rowPos[j] the entry's index in val, j in
	// [rowPtr[k], rowPtr[k+1]).
	rowPtr, rowCol, rowPos []int32
	work                   []float64
}

// newCholesky orders the n variables by minimum degree on the graph adj
// (adj[v] lists v's neighbours; it is consumed) and lays out the factor's
// pattern: eliminating a vertex joins its remaining neighbours into a
// clique, and those neighbours are exactly the rows of its column of L.
// Ties go to the lowest variable, so the ordering is a pure function of
// the graph.
func newCholesky(n int, adj [][]int32) *cholesky {
	c := &cholesky{n: n, perm: make([]int32, n), iperm: make([]int32, n)}
	done := make([]bool, n)
	stamp := make([]int32, n)
	mark := int32(0)
	cols := make([][]int32, n)
	for k := range n {
		best := -1
		for v := range n {
			if !done[v] && (best < 0 || len(adj[v]) < len(adj[best])) {
				best = v
			}
		}
		c.perm[k], c.iperm[best], done[best] = int32(best), int32(k), true
		nb := adj[best]
		cols[best], adj[best] = nb, nil
		for _, u := range nb {
			mark++
			kept := adj[u][:0]
			for _, w := range adj[u] {
				if w != int32(best) {
					kept = append(kept, w)
					stamp[w] = mark
				}
			}
			stamp[u] = mark
			for _, w := range nb {
				if stamp[w] != mark {
					kept = append(kept, w)
					stamp[w] = mark
				}
			}
			adj[u] = kept
		}
	}

	c.colPtr = make([]int32, n+1)
	for k := range n {
		c.colPtr[k+1] = c.colPtr[k] + 1 + int32(len(cols[c.perm[k]]))
	}
	nnz := c.colPtr[n]
	c.rowIdx = make([]int32, nnz)
	c.val = make([]float64, nnz)
	c.a = make([]float64, nnz)
	c.work = make([]float64, n)
	rowCount := make([]int32, n+1)
	for k := range n {
		rows := c.rowIdx[c.colPtr[k]:c.colPtr[k+1]]
		rows[0] = int32(k)
		for j, v := range cols[c.perm[k]] {
			rows[j+1] = c.iperm[v]
			rowCount[c.iperm[v]+1]++
		}
		slices.Sort(rows[1:])
	}
	c.rowPtr = rowCount
	for k := range n {
		c.rowPtr[k+1] += c.rowPtr[k]
	}
	c.rowCol = make([]int32, c.rowPtr[n])
	c.rowPos = make([]int32, c.rowPtr[n])
	fill := slices.Clone(c.rowPtr[:n])
	for k := range n {
		for p := c.colPtr[k] + 1; p < c.colPtr[k+1]; p++ {
			r := c.rowIdx[p]
			c.rowCol[fill[r]], c.rowPos[fill[r]] = int32(k), p
			fill[r]++
		}
	}
	return c
}

// pos returns the index in val of the entry coupling variables a and b
// (either order); the pair must be in the pattern newCholesky was given.
func (c *cholesky) pos(a, b int32) int32 {
	r, k := c.iperm[a], c.iperm[b]
	if r < k {
		r, k = k, r
	}
	lo, hi := c.colPtr[k], c.colPtr[k+1]
	if r == k {
		return lo
	}
	j, ok := slices.BinarySearch(c.rowIdx[lo+1:hi], r)
	if !ok {
		panic("convex: entry outside the factor's pattern")
	}
	return lo + 1 + int32(j)
}

// tinyPivot is the smallest pivot, relative to the matrix's own diagonal,
// that factor keeps. A smaller one is a direction the matrix cannot see
// in double precision: the pivot is replaced by a huge value, which sets
// that component of every solve to (nearly) zero — the usual remedy for
// the ill-conditioning of late interior-point iterations.
const tinyPivot = 1e-30

// factor overwrites val, holding the matrix's lower triangle, with L, by
// left-looking column updates: column k gathers the matrix column into
// the dense work vector, subtracts L[k,j]·L[k:,j] for every j in row k's
// pattern, and scales by the pivot's square root.
func (c *cholesky) factor() {
	copy(c.a, c.val)
	x, val, rows := c.work, c.val, c.rowIdx
	for k := range c.n {
		lo, hi := c.colPtr[k], c.colPtr[k+1]
		for p := lo; p < hi; p++ {
			x[rows[p]] = val[p]
		}
		orig := x[k]
		for j := c.rowPtr[k]; j < c.rowPtr[k+1]; j++ {
			pk, end := c.rowPos[j], c.colPtr[c.rowCol[j]+1]
			lkj := val[pk]
			vs := val[pk:end]
			rs := rows[pk:end]
			rs = rs[:len(vs)]
			for q, v := range vs {
				x[rs[q]] -= v * lkj
			}
		}
		d := x[k]
		if !(d > tinyPivot*math.Abs(orig)) || math.IsInf(d, 0) {
			d = 1e128
		}
		d = math.Sqrt(d)
		val[lo] = d
		x[k] = 0
		vs, rs := val[lo+1:hi], rows[lo+1:hi]
		rs = rs[:len(vs)]
		for q := range vs {
			r := rs[q]
			vs[q] = x[r] / d
			x[r] = 0
		}
	}
}

// solve overwrites b (indexed by variable) with the solution of L·Lᵀ·y = b.
func (c *cholesky) solve(b []float64) {
	y, val, rows := c.work, c.val, c.rowIdx
	for k, v := range c.perm {
		y[k] = b[v]
	}
	for k := range c.n {
		lo, hi := c.colPtr[k], c.colPtr[k+1]
		yk := y[k] / val[lo]
		y[k] = yk
		vs, rs := val[lo+1:hi], rows[lo+1:hi]
		rs = rs[:len(vs)]
		for q, v := range vs {
			y[rs[q]] -= v * yk
		}
	}
	for k := c.n - 1; k >= 0; k-- {
		lo, hi := c.colPtr[k], c.colPtr[k+1]
		s := y[k]
		vs, rs := val[lo+1:hi], rows[lo+1:hi]
		rs = rs[:len(vs)]
		for q, v := range vs {
			s -= v * y[rs[q]]
		}
		y[k] = s / val[lo]
	}
	for k, v := range c.perm {
		b[v] = y[k]
		y[k] = 0
	}
}

// mul writes the last factored matrix times x (both indexed by variable)
// into out.
func (c *cholesky) mul(x, out []float64) {
	xp, rows := c.work, c.rowIdx
	for k, v := range c.perm {
		xp[k] = x[v]
		out[v] = 0
	}
	for k := range c.n {
		lo, hi := c.colPtr[k], c.colPtr[k+1]
		vk := c.perm[k]
		sum := c.a[lo] * xp[k]
		for p := lo + 1; p < hi; p++ {
			r := rows[p]
			sum += c.a[p] * xp[r]
			out[c.perm[r]] += c.a[p] * xp[k]
		}
		out[vk] += sum
	}
	clear(xp)
}
