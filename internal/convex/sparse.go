package convex

import (
	"math"
	"math/bits"
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

// newCholesky orders the n variables by minimum degree on the graph in
// which each clique — cliqVar[cliqOff[q]:cliqOff[q+1]] — is complete, and
// lays out the factor's pattern: eliminating a vertex joins its remaining
// neighbours into a clique, and those neighbours are exactly the rows of
// its column of L. Ties go to the lowest variable, so the ordering is a
// pure function of the graph.
func newCholesky(n int, cliqOff, cliqVar []int32) *cholesky {
	c := &cholesky{n: n, perm: make([]int32, n), iperm: make([]int32, n), colPtr: make([]int32, n+1)}
	// The elimination graph as one bit row per vertex, words of 64
	// variables, and each vertex's degree.
	w := (n + 63) / 64
	adj := make([]uint64, n*w)
	row := func(v int32) []uint64 { return adj[int(v)*w : int(v+1)*w] }
	for q := range len(cliqOff) - 1 {
		vs := cliqVar[cliqOff[q]:cliqOff[q+1]]
		for _, a := range vs {
			ra := row(a)
			for _, b := range vs {
				ra[b/64] |= 1 << (b % 64)
			}
			ra[a/64] &^= 1 << (a % 64)
		}
	}
	scratch := make([]int32, 2*n)
	deg, fill := scratch[:n], scratch[n:]
	for v := range n {
		for _, x := range row(int32(v)) {
			deg[v] += int32(bits.OnesCount64(x))
		}
	}
	// cols holds each column's variables, aligned with colPtr: the pivot,
	// then its neighbours at elimination. An eliminated vertex's degree is
	// past any remaining one's.
	cols := make([]int32, 0, 4*n)
	for k := range n {
		best := 0
		for v := 1; v < n; v++ {
			if deg[v] < deg[best] {
				best = v
			}
		}
		b := int32(best)
		c.perm[k], c.iperm[best], deg[best] = b, int32(k), math.MaxInt32
		rb := row(b)
		lo, hi := 0, w
		for lo < hi && rb[lo] == 0 {
			lo++
		}
		for hi > lo && rb[hi-1] == 0 {
			hi--
		}
		first := len(cols)
		cols = append(cols, b)
		for i := lo; i < hi; i++ {
			for x := rb[i]; x != 0; x &= x - 1 {
				cols = append(cols, int32(64*i+bits.TrailingZeros64(x)))
			}
		}
		c.colPtr[k+1] = int32(len(cols))
		// Each neighbour u loses b and gains the others it lacks.
		for _, u := range cols[first+1:] {
			ru := row(u)
			ru[b/64] &^= 1 << (b % 64)
			added := int32(0)
			for i := lo; i < hi; i++ {
				x := rb[i] &^ ru[i]
				added += int32(bits.OnesCount64(x))
				ru[i] |= x
			}
			ru[u/64] &^= 1 << (u % 64) // rb holds u, ru did not
			deg[u] += added - 2
		}
	}

	// Rows by transposition, which leaves both ascending: row r's columns
	// (rowCol, in column order) from the columns, then each column's rows
	// (rowIdx, in row order) from the rows.
	nnz := c.colPtr[n]
	c.rowPtr = make([]int32, n+1)
	for k := range n {
		for p := c.colPtr[k] + 1; p < c.colPtr[k+1]; p++ {
			c.rowPtr[c.iperm[cols[p]]+1]++
		}
	}
	for k := range n {
		c.rowPtr[k+1] += c.rowPtr[k]
	}
	c.rowCol = make([]int32, c.rowPtr[n])
	c.rowPos = make([]int32, c.rowPtr[n])
	copy(fill, c.rowPtr[:n])
	for k := range n {
		for p := c.colPtr[k] + 1; p < c.colPtr[k+1]; p++ {
			r := c.iperm[cols[p]]
			c.rowCol[fill[r]] = int32(k)
			fill[r]++
		}
	}
	c.rowIdx = cols[:nnz:nnz]
	for k := range n {
		c.rowIdx[c.colPtr[k]] = int32(k)
		fill[k] = c.colPtr[k] + 1
	}
	for r := range n {
		for j := c.rowPtr[r]; j < c.rowPtr[r+1]; j++ {
			k := c.rowCol[j]
			c.rowIdx[fill[k]], c.rowPos[j] = int32(r), fill[k]
			fill[k]++
		}
	}
	vals := make([]float64, 2*nnz+4*int32(n))
	c.val, c.a, c.work = vals[:nnz:nnz], vals[nnz:2*nnz:2*nnz], vals[2*nnz:]
	return c
}

// positions sets pos[i] to the index in val of the entry coupling
// variables ab[2i] and ab[2i+1] (either order), which must be in the
// pattern newCholesky laid out; it overwrites ab with the entries' rows
// and columns. The entries are bucketed by column, and each column's rows
// are scattered once into an array indexed by row.
func (c *cholesky) positions(ab, pos []int32) {
	n := c.n
	scratch := make([]int32, 2*n+2+len(pos))
	start, where, order := scratch[:n+2], scratch[n+2:2*n+2], scratch[2*n+2:]
	for i := range pos {
		r, k := c.iperm[ab[2*i]], c.iperm[ab[2*i+1]]
		if r < k {
			r, k = k, r
		}
		ab[2*i], ab[2*i+1] = r, k
		start[k+2]++
	}
	for k := range n {
		start[k+2] += start[k+1]
	}
	for i := range pos {
		k := ab[2*i+1]
		order[start[k+1]] = int32(i)
		start[k+1]++
	}
	for k := range n {
		lo, hi := c.colPtr[k], c.colPtr[k+1]
		for p := lo; p < hi; p++ {
			where[c.rowIdx[p]] = p
		}
		for _, i := range order[start[k]:start[k+1]] {
			r := ab[2*i]
			p := where[r]
			if p < lo || p >= hi || c.rowIdx[p] != r {
				panic("convex: entry outside the factor's pattern")
			}
			pos[i] = p
		}
	}
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

// solve overwrites b (indexed by variable) with the solution of
// L·Lᵀ·y = b, for one or two right sides at once: each in the same
// operations, in the same order.
func (c *cholesky) solve(bs ...[]float64) {
	if len(bs) == 2 {
		c.solve2(bs[0], bs[1])
		return
	}
	b := bs[0]
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

// solve2 is solve on two right sides, interleaved in the work vector.
func (c *cholesky) solve2(b0, b1 []float64) {
	y, val, rows := c.work, c.val, c.rowIdx
	for k, v := range c.perm {
		y[2*k], y[2*k+1] = b0[v], b1[v]
	}
	for k := range c.n {
		lo, hi := c.colPtr[k], c.colPtr[k+1]
		y0, y1 := y[2*k]/val[lo], y[2*k+1]/val[lo]
		y[2*k], y[2*k+1] = y0, y1
		vs, rs := val[lo+1:hi], rows[lo+1:hi]
		rs = rs[:len(vs)]
		for q, v := range vs {
			r := 2 * rs[q]
			y[r] -= v * y0
			y[r+1] -= v * y1
		}
	}
	for k := c.n - 1; k >= 0; k-- {
		lo, hi := c.colPtr[k], c.colPtr[k+1]
		s0, s1 := y[2*k], y[2*k+1]
		vs, rs := val[lo+1:hi], rows[lo+1:hi]
		rs = rs[:len(vs)]
		for q, v := range vs {
			r := 2 * rs[q]
			s0 -= v * y[r]
			s1 -= v * y[r+1]
		}
		y[2*k], y[2*k+1] = s0/val[lo], s1/val[lo]
	}
	for k, v := range c.perm {
		b0[v], b1[v] = y[2*k], y[2*k+1]
		y[2*k], y[2*k+1] = 0, 0
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
	clear(xp[:c.n])
}

// mul2 is mul on two vectors: each in mul's operations, in mul's order,
// the products accumulated in pivot order and interleaved in the work
// vector, then put back in variable order.
func (c *cholesky) mul2(x0, x1, out0, out1 []float64) {
	n, rows := c.n, c.rowIdx
	xp, op := c.work[:2*n], c.work[2*n:4*n]
	for k, v := range c.perm {
		xp[2*k], xp[2*k+1] = x0[v], x1[v]
	}
	for k := range n {
		lo, hi := c.colPtr[k], c.colPtr[k+1]
		y0, y1 := xp[2*k], xp[2*k+1]
		s0, s1 := c.a[lo]*y0, c.a[lo]*y1
		as, rs := c.a[lo+1:hi], rows[lo+1:hi]
		rs = rs[:len(as)]
		for q, a := range as {
			r := 2 * rs[q]
			s0 += a * xp[r]
			s1 += a * xp[r+1]
			op[r] += a * y0
			op[r+1] += a * y1
		}
		op[2*k] += s0
		op[2*k+1] += s1
	}
	for k, v := range c.perm {
		out0[v], out1[v] = op[2*k], op[2*k+1]
	}
	clear(c.work[:4*n])
}
