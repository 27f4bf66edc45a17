// Package matrix implements dense row-major float64 matrices: the data
// the test programs (Complex Matrix Multiply, Strassen) actually compute
// on. Every simulated program run moves and transforms real values, so
// scheduling and code-generation bugs surface as wrong numbers, not just
// wrong times.
//
// There is one multiply, MulStrip: the sequential reference (Mul, over
// whole operands) and a simulated processor's share of a distributed
// product (a row strip of A against a column strip of B, read in place)
// run the same loop and so agree bit for bit, which the recovery and
// digest gates rely on. reference_test.go keeps the plain triple loop it
// must match.
//
// Sin and Cos evaluate math.Sin and math.Cos over a slice with the same
// result bits (trig.go); the programs' init generators fill their rows
// through them.
package matrix

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) outside %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Fill assigns every element from f(i, j).
func (m *Matrix) Fill(f func(i, j int) float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] = f(i, j)
		}
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

func sameShape(a, b *Matrix) error {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("matrix: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return nil
}

// Add computes dst = a + b. dst may alias a or b.
func Add(dst, a, b *Matrix) error {
	if err := sameShape(a, b); err != nil {
		return err
	}
	if err := sameShape(dst, a); err != nil {
		return err
	}
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return nil
}

// Sub computes dst = a - b. dst may alias a or b.
func Sub(dst, a, b *Matrix) error {
	if err := sameShape(a, b); err != nil {
		return err
	}
	if err := sameShape(dst, a); err != nil {
		return err
	}
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return nil
}

// Mul computes dst = a·b. dst must not alias a or b. It is MulStrip over
// the whole of both operands: one kernel, so a full product and a
// simulated processor's strip of it agree bit for bit.
func Mul(dst, a, b *Matrix) error {
	return MulStrip(dst, a, 0, a.Rows, b, 0, b.Cols)
}

// axpy4Vec is the vector form of one group of four: for one row of dst
// (rows = 1) or two adjacent ones (rows = 2), each w wide, it adds the
// products of the row's four a values at a — the second row's are inner
// further on — with the four b rows at b, stride apart; first starts the
// sums from +0 instead of from what d holds. Element for element it
// performs axpy4's operations in axpy4's order. It is nil unless the
// architecture's file (matrix_amd64.go) has a kernel this CPU can run, in
// which case its init sets it, once, to the widest; tests set it to reach
// every other path on the same machine.
var axpy4Vec func(d, a, b *float64, w, inner, stride, rows int, first bool)

// axpyVec is the vector form of axpy for one nonzero a value, at a: it
// adds a·b[j] to d[j] for every j < w, a rounded product then a rounded
// sum, as axpy does. It is set where axpy4Vec is, by the same init.
var axpyVec func(d, a, b *float64, w int)

// MulStrip computes dst = a[r0:r1, :] · b[:, c0:c1], reading both strips
// in place. dst is (r1-r0)×(c1-c0) and must not alias a or b. Operand
// shapes that do not fit each other are an error; a strip outside its
// operand panics, as Block does.
//
// Every output element accumulates its products in ascending k starting
// from zero, each product and each sum rounded on its own, and a zero
// a[i][k] contributes nothing (so 0·Inf never poisons a row): the result
// is the classical ikj triple loop's, bit for bit. The k loop runs in
// groups of four so the accumulator stays in a register across four
// products instead of making a round trip through dst for each, and a
// group with a zero among its a values takes the one-at-a-time path,
// which is what keeps the skip exact. dst is not cleared in a pass of its
// own: a row is cleared as its first group begins, or, by the vector
// kernel, not at all — its first group starts from a zero register.
//
// There are two inner paths, chosen once per process. The portable one is
// axpy4. Where axpy4Vec is set, a group goes to it instead, for two rows
// of dst at once when neither row's four a values hold a zero and for one
// row otherwise; every element still sees the same operations in the same
// order, so which path ran cannot be told from the result. The last
// inner % 4 values of k come one at a time, through axpy or, where it is
// set, axpyVec.
func MulStrip(dst, a *Matrix, r0, r1 int, b *Matrix, c0, c1 int) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("matrix: inner dimensions %d vs %d", a.Cols, b.Rows)
	}
	if r0 < 0 || r1 > a.Rows || r0 > r1 || c0 < 0 || c1 > b.Cols || c0 > c1 {
		panic(fmt.Sprintf("matrix: strips [%d:%d,:]·[:,%d:%d] outside %dx%d · %dx%d",
			r0, r1, c0, c1, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != r1-r0 || dst.Cols != c1-c0 {
		return fmt.Errorf("matrix: dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, r1-r0, c1-c0)
	}
	w, inner, stride := c1-c0, a.Cols, b.Cols
	if w == 0 {
		return nil
	}
	grouped := inner &^ 3 // the k below this come in whole groups of four
	if grouped == 0 {
		clear(dst.Data) // no first group will start the rows from zero
	}
	vec, tail := axpy4Vec, axpyVec
	for i, rows := r0, 0; i < r1; i += rows {
		// Two rows at a time where there is a vector kernel and a second
		// row; arows and drows are those rows of a and dst, end to end.
		rows = 1
		if vec != nil && i+1 < r1 {
			rows = 2
		}
		arows := a.Data[i*inner:][:rows*inner]
		drows := dst.Data[(i-r0)*w:][:rows*w]
		for k := 0; k < grouped; k += 4 {
			bk := b.Data[k*stride+c0:] // the group's four b rows start stride apart
			if rows == 2 && !hasZero(arows[k:]) && !hasZero(arows[inner+k:]) {
				vec(&drows[0], &arows[k], &bk[0], w, inner, stride, 2, k == 0)
				continue
			}
			for r := 0; r < rows; r++ {
				av, drow := arows[r*inner+k:][:4], drows[r*w:][:w]
				zero := hasZero(av)
				if vec != nil && !zero {
					vec(&drow[0], &av[0], &bk[0], w, inner, stride, 1, k == 0)
					continue
				}
				if k == 0 {
					clear(drow)
				}
				if !zero {
					axpy4(drow, av, bk, stride)
					continue
				}
				for kk, x := range av {
					axpy(drow, x, bk[kk*stride:][:w])
				}
			}
		}
		for k := grouped; k < inner; k++ {
			brow := b.Data[k*stride+c0:][:w]
			for r := 0; r < rows; r++ {
				drow, av := drows[r*w:][:w], arows[r*inner+k:]
				if tail == nil {
					axpy(drow, av[0], brow)
				} else if av[0] != 0 {
					tail(&drow[0], &av[0], &brow[0], w)
				}
			}
		}
	}
	return nil
}

// hasZero reports whether the four a values of the group that av starts
// with hold a zero of either sign.
func hasZero(av []float64) bool {
	return av[0] == 0 || av[1] == 0 || av[2] == 0 || av[3] == 0
}

// axpy4 adds av[0]·b₀ + … + av[3]·b₃ to drow, in that order, one rounded
// product and one rounded sum at a time, where bₖ is as long as drow and
// starts k·stride into bk. It is the whole of the portable inner path,
// and a function of its own so that its loop keeps every operand in a
// register.
func axpy4(drow, av, bk []float64, stride int) {
	a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
	w := len(drow)
	b0, b1, b2, b3 := bk[:w], bk[stride:][:w], bk[2*stride:][:w], bk[3*stride:][:w]
	for j := range drow {
		d := drow[j]
		d += a0 * b0[j]
		d += a1 * b1[j]
		d += a2 * b2[j]
		d += a3 * b3[j]
		drow[j] = d
	}
}

// axpy adds av·brow to drow, skipping a zero av. len(brow) == len(drow).
func axpy(drow []float64, av float64, brow []float64) {
	if av == 0 {
		return
	}
	for j, bv := range brow {
		drow[j] += av * bv
	}
}

// Scale computes dst = c·a. dst may alias a.
func Scale(dst *Matrix, c float64, a *Matrix) error {
	if err := sameShape(dst, a); err != nil {
		return err
	}
	for i := range dst.Data {
		dst.Data[i] = c * a.Data[i]
	}
	return nil
}

// Block returns a copy of the rectangle rows [r0,r1) × cols [c0,c1).
func (m *Matrix) Block(r0, r1, c0, c1 int) *Matrix {
	if r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: block [%d:%d,%d:%d] outside %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := New(r1-r0, c1-c0)
	out.CopyRect(0, 0, m, r0, r1, c0, c1)
	return out
}

// SetBlock copies src into the rectangle anchored at (r0, c0).
func (m *Matrix) SetBlock(r0, c0 int, src *Matrix) {
	m.CopyRect(r0, c0, src, 0, src.Rows, 0, src.Cols)
}

// CopyRect copies the rectangle rows [r0,r1) × cols [c0,c1) of src into m
// anchored at (dr, dc): Block and SetBlock in one pass, with no
// intermediate matrix. m and src must not overlap.
func (m *Matrix) CopyRect(dr, dc int, src *Matrix, r0, r1, c0, c1 int) {
	if r0 < 0 || r1 > src.Rows || c0 < 0 || c1 > src.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: block [%d:%d,%d:%d] outside %dx%d", r0, r1, c0, c1, src.Rows, src.Cols))
	}
	h, w := r1-r0, c1-c0
	if dr < 0 || dr+h > m.Rows || dc < 0 || dc+w > m.Cols {
		panic(fmt.Sprintf("matrix: block %dx%d at (%d,%d) outside %dx%d", h, w, dr, dc, m.Rows, m.Cols))
	}
	for i := 0; i < h; i++ {
		copy(m.Data[(dr+i)*m.Cols+dc:][:w], src.Data[(r0+i)*src.Cols+c0:][:w])
	}
}

// MaxAbsDiff returns the max-norm distance between two same-shaped
// matrices, for verification against reference results.
func MaxAbsDiff(a, b *Matrix) (float64, error) {
	if err := sameShape(a, b); err != nil {
		return 0, err
	}
	d := 0.0
	for i := range a.Data {
		if v := math.Abs(a.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d, nil
}

// Equal reports elementwise equality within tol.
func Equal(a, b *Matrix, tol float64) bool {
	d, err := MaxAbsDiff(a, b)
	return err == nil && d <= tol
}
