package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// refMul is the classical ikj triple loop MulStrip replaced, kept
// verbatim as the reference the differential and fuzz tests compare
// against bit for bit: one round trip through dst per product, a zero
// a[i][k] skipped.
func refMul(dst, a, b *Matrix) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("matrix: inner dimensions %d vs %d", a.Cols, b.Rows)
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("matrix: dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols)
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return nil
}

// hardwareNaN is the NaN this machine's arithmetic produces (Inf − Inf).
// When an addition or a product meets two NaNs with different payloads,
// which one survives depends on the operand order the compiler happened
// to pick for that instruction, which Go does not pin; with a single
// payload in play every NaN is the same bits whichever operand wins. The
// bit-identity tests therefore seed this NaN and no other.
func hardwareNaN() float64 {
	inf := math.Inf(1)
	return inf - inf
}

// specials are the values the differential tests sprinkle over random
// operands: the ones on which a reordered or fused accumulation would
// show (signed zeros and the zero skip, overflow to ±Inf, Inf−Inf and
// 0·Inf turning into NaN, denormals).
func specials() []float64 {
	return []float64{
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), hardwareNaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
}

// sameBits is the equality the bit-identity tests demand.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// vecKernel is one width of the architecture's vector kernels: its name,
// a kernel for every hook (axpy4Vec and the axpyVec beside it, addVec,
// subVec, sinVec and cosVec), and whether this CPU can run them.
type vecKernel struct {
	name     string
	fn       func(d, a, b *float64, w, inner, stride, rows int, first bool)
	tail     func(d, a, b *float64, w int)
	add, sub func(d, a, b *float64, n int)
	sin, cos func(dst, src *float64, n int) int
	usable   bool
}

// vecKernels lists the architecture's vector kernels, widest first; the
// architecture's test file (kernels_amd64_test.go) fills it. It is empty
// where there are none.
var vecKernels []vecKernel

// pathsLogged holds the tests that have logged their paths, so that each
// logs them once however many cases it checks.
var pathsLogged sync.Map

// eachPath runs f on every path the package's kernels have on this
// machine: with each width of vector kernels this CPU can run, widest
// first, and with none, which is the portable Go every other machine
// runs. The first call under t logs which paths ran and which vector
// width was left out, and why.
func eachPath(t testing.TB, f func(path string)) {
	t.Helper()
	saved := vecKernel{fn: axpy4Vec, tail: axpyVec, add: addVec, sub: subVec, sin: sinVec, cos: cosVec}
	defer setKernels(saved)
	var ran, skipped []string
	for _, k := range vecKernels {
		if !k.usable {
			skipped = append(skipped, k.name)
			continue
		}
		setKernels(k)
		f(k.name)
		ran = append(ran, k.name)
	}
	setKernels(vecKernel{})
	f("portable")
	if _, seen := pathsLogged.LoadOrStore(t, true); !seen {
		t.Cleanup(func() { pathsLogged.Delete(t) })
		t.Logf("kernel paths run: %s", strings.Join(append(ran, "portable"), ", "))
		for _, name := range skipped {
			t.Logf("kernel path %s skipped: this CPU or operating system cannot run it", name)
		}
	}
}

// setKernels points every hook at k's kernels.
func setKernels(k vecKernel) {
	axpy4Vec, axpyVec, addVec, subVec, sinVec, cosVec = k.fn, k.tail, k.add, k.sub, k.sin, k.cos
}

// checkStripBits multiplies the strip a[r0:r1,:]·b[:,c0:c1] in place with
// MulStrip, on each of its paths, and, on copied strips, with refMul, and
// requires the results to agree in every bit.
func checkStripBits(t *testing.T, a *Matrix, r0, r1 int, b *Matrix, c0, c1 int) {
	t.Helper()
	checkStrip(t, sameBits, a, r0, r1, b, c0, c1)
}

// guardLen is how far past an operand's data guarded reaches: further
// than any kernel step, sixteen columns wide, could run past the strip.
// guardValue fills that reach.
const (
	guardLen   = 16
	guardValue = -7.25
)

// guarded returns a copy of m whose data runs on into guardLen cells of
// guardValue, and those cells. A kernel step that runs past the end of
// the strip then reads finite values instead of faulting, and leaves a
// trace where it writes.
func guarded(m *Matrix) (*Matrix, []float64) {
	buf := make([]float64, len(m.Data)+guardLen)
	copy(buf, m.Data)
	guard := buf[len(m.Data):]
	for i := range guard {
		guard[i] = guardValue
	}
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: buf[:len(m.Data)]}, guard
}

func checkStrip(t *testing.T, same func(x, y float64) bool, a *Matrix, r0, r1 int, b *Matrix, c0, c1 int) {
	t.Helper()
	want := New(r1-r0, c1-c0)
	if err := refMul(want, a.Block(r0, r1, 0, a.Cols), b.Block(0, b.Rows, c0, c1)); err != nil {
		t.Fatal(err)
	}
	a, _ = guarded(a)
	b, _ = guarded(b)
	eachPath(t, func(path string) {
		got, guard := guarded(New(r1-r0, c1-c0))
		for i := range got.Data {
			got.Data[i] = 12345 // MulStrip must overwrite, not accumulate into, dst
		}
		if err := MulStrip(got, a, r0, r1, b, c0, c1); err != nil {
			t.Fatal(err)
		}
		for i, v := range guard {
			if v != guardValue {
				t.Fatalf("%s path, %dx%d·%dx%d strip [%d:%d,:]·[:,%d:%d]: wrote %v %d past the end of dst",
					path, a.Rows, a.Cols, b.Rows, b.Cols, r0, r1, c0, c1, v, i+1)
			}
		}
		for i := range want.Data {
			if !same(got.Data[i], want.Data[i]) {
				t.Fatalf("%s path, %dx%d·%dx%d strip [%d:%d,:]·[:,%d:%d]: element %d = %v (%#x), reference %v (%#x)",
					path, a.Rows, a.Cols, b.Rows, b.Cols, r0, r1, c0, c1, i,
					got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
			}
		}
	})
}

func TestMulMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sp := specials()
	// operand draws a matrix whose elements are special with probability
	// density: 0 gives plain random data, 0.5 makes most groups of four
	// take the zero-skip path and most sums meet an Inf or a NaN.
	operand := func(r, c int, density float64) *Matrix {
		m := New(r, c)
		for i := range m.Data {
			if rng.Float64() < density {
				m.Data[i] = sp[rng.Intn(len(sp))]
			} else {
				m.Data[i] = rng.NormFloat64() * math.Exp(8*rng.NormFloat64())
			}
		}
		return m
	}
	shapes := [][3]int{ // M, K, N
		{1, 1, 1}, {1, 4, 1}, {3, 5, 2}, {2, 3, 7}, {4, 8, 4}, {5, 9, 6},
		{7, 13, 11}, {16, 64, 16}, {9, 31, 33}, {1, 0, 1}, {3, 0, 2}, {0, 3, 2}, {2, 3, 0},
	}
	for i := 0; i < 40; i++ {
		shapes = append(shapes, [3]int{rng.Intn(20), rng.Intn(23), rng.Intn(20)})
	}
	for _, s := range shapes {
		for _, density := range []float64{0, 0.05, 0.5} {
			a, b := operand(s[0], s[1], density), operand(s[1], s[2], density)
			checkStripBits(t, a, 0, a.Rows, b, 0, b.Cols)
			// Sub-rectangles, including empty strips at either end.
			for n := 0; n < 4; n++ {
				r0 := rng.Intn(a.Rows + 1)
				r1 := r0 + rng.Intn(a.Rows-r0+1)
				c0 := rng.Intn(b.Cols + 1)
				c1 := c0 + rng.Intn(b.Cols-c0+1)
				checkStripBits(t, a, r0, r1, b, c0, c1)
			}
			// Mul is the same kernel over the whole operands.
			whole, want := New(a.Rows, b.Cols), New(a.Rows, b.Cols)
			if err := refMul(want, a, b); err != nil {
				t.Fatal(err)
			}
			eachPath(t, func(path string) {
				if err := Mul(whole, a, b); err != nil {
					t.Fatal(err)
				}
				for i := range want.Data {
					if !sameBits(whole.Data[i], want.Data[i]) {
						t.Fatalf("%s path, Mul %v element %d = %v, reference %v", path, s, i, whole.Data[i], want.Data[i])
					}
				}
			})
		}
	}
}

// TestMulStripKernelEdges sweeps the shapes a kernel that takes columns
// up to sixteen at a time and rows two at a time can get wrong and a
// random draw seldom hits: every strip width from 1 to 40 (two sixteen-
// column passes, then the eight-, four- and one-column steps in every
// combination), one to five rows (the odd row after the pairs), inner
// dimensions around the groups of four, strips that start at each column
// offset mod 16 (so the loads are unaligned in every way a 64-byte line
// can split them), special values in the strip's last columns and just
// outside it, products that are all −0, and a zero of either sign planted
// at every position of a — the first group of either row of a pair, a
// later group, the tail.
func TestMulStripKernelEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sp := specials()
	draw := func(r, c int) *Matrix {
		m := New(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
		}
		return m
	}
	for w := 1; w <= 40; w++ {
		for rows := 1; rows <= 5; rows++ {
			for _, inner := range []int{1, 3, 4, 5, 8, 11} {
				for c0 := 0; c0 < 16; c0++ {
					// One spare row above the strip and two spare columns
					// to its right: nothing outside it may leak in.
					a, b := draw(rows+1, inner), draw(inner, c0+w+2)
					checkStripBits(t, a, 1, rows+1, b, c0, c0+w)

					// Specials from the strip's last sixteen columns (a
					// whole pass of the widest kernel, or every step after
					// it) to the column past its end.
					tail := b.Clone()
					for k := 0; k < inner; k++ {
						for j := max(c0, c0+w-16); j < c0+w+1; j++ {
							tail.Set(k, j, sp[rng.Intn(len(sp))])
						}
					}
					checkStripBits(t, a, 1, rows+1, tail, c0, c0+w)
					// The same b under an a that overflows, underflows
					// and carries a NaN of its own.
					wild := a.Clone()
					for i := range wild.Data {
						if rng.Intn(3) == 0 {
							wild.Data[i] = sp[2+rng.Intn(len(sp)-2)] // any special but the zeros
						}
					}
					checkStripBits(t, wild, 1, rows+1, tail, c0, c0+w)

					// Every product −0: the sums start from +0, not from
					// the first product, so every element is +0.
					negZero := New(b.Rows, b.Cols)
					for i := range negZero.Data {
						negZero.Data[i] = math.Copysign(0, -1)
					}
					checkStripBits(t, a, 1, rows+1, negZero, c0, c0+w)

					if c0 != 1 {
						continue
					}
					for i := inner; i < len(a.Data); i++ {
						keep := a.Data[i]
						a.Data[i] = math.Copysign(0, float64(i%2)-0.5)
						checkStripBits(t, a, 1, rows+1, tail, c0, c0+w)
						a.Data[i] = keep
					}
				}
			}
		}
	}
}

// TestMulForeignNaNPayloads covers what hardwareNaN leaves out: operands
// carrying a NaN of another payload (math.NaN's). Which payload a sum of
// two NaNs keeps is not pinned, so here a NaN must meet a NaN and
// everything else must still agree in every bit.
func TestMulForeignNaNPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	vals := append(specials(), math.NaN())
	same := func(x, y float64) bool { return sameBits(x, y) || (math.IsNaN(x) && math.IsNaN(y)) }
	for n := 0; n < 60; n++ {
		a := New(1+rng.Intn(9), 1+rng.Intn(17))
		b := New(a.Cols, 1+rng.Intn(9))
		for _, m := range []*Matrix{a, b} {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
				if rng.Intn(5) == 0 {
					m.Data[i] = vals[rng.Intn(len(vals))]
				}
			}
		}
		checkStrip(t, same, a, 0, a.Rows, b, 0, b.Cols)
	}
}

func TestMulStripRejectsBadShapes(t *testing.T) {
	a, b := New(4, 3), New(3, 5)
	for _, tc := range []struct {
		name           string
		dst, a, b      *Matrix
		r0, r1, c0, c1 int
		panics         bool
	}{
		{"inner dimensions", New(4, 5), a, New(2, 5), 0, 4, 0, 5, false},
		{"dst shape", New(4, 5), a, b, 0, 2, 0, 5, false},
		{"rows past the end", New(2, 5), a, b, 3, 5, 0, 5, true},
		{"negative row", New(2, 5), a, b, -1, 1, 0, 5, true},
		{"rows reversed", New(0, 5), a, b, 2, 1, 0, 5, true},
		{"cols past the end", New(4, 2), a, b, 0, 4, 4, 6, true},
		{"cols reversed", New(4, 0), a, b, 0, 4, 3, 2, true},
	} {
		func() {
			defer func() {
				if r := recover(); (r != nil) != tc.panics {
					t.Errorf("%s: panic = %v, want panic %v", tc.name, r, tc.panics)
				}
			}()
			if err := MulStrip(tc.dst, tc.a, tc.r0, tc.r1, tc.b, tc.c0, tc.c1); err == nil {
				t.Errorf("%s: no error", tc.name)
			}
		}()
	}
}

// stripsFromBytes decodes a fuzz input into two operands and a strip:
// seven shape bytes (M, K, N up to 23, then the four strip corners), then one
// byte per element — below len(specials) picks that special value,
// anything else a small signed number — cycling over whatever is left.
func stripsFromBytes(data []byte) (a *Matrix, r0, r1 int, b *Matrix, c0, c1 int) {
	var head [7]byte
	copy(head[:], data)
	if len(data) > len(head) {
		data = data[len(head):]
	} else {
		data = nil
	}
	m, k, n := int(head[0])%24, int(head[1])%24, int(head[2])%24
	r0 = int(head[3]) % (m + 1)
	r1 = r0 + int(head[4])%(m-r0+1)
	c0 = int(head[5]) % (n + 1)
	c1 = c0 + int(head[6])%(n-c0+1)
	sp := specials()
	at := 0
	next := func() float64 {
		if len(data) == 0 {
			return 1
		}
		v := data[at%len(data)]
		at++
		if int(v) < len(sp) {
			return sp[v]
		}
		return float64(int8(v)) / 16
	}
	a, b = New(m, k), New(k, n)
	for i := range a.Data {
		a.Data[i] = next()
	}
	for i := range b.Data {
		b.Data[i] = next()
	}
	return a, r0, r1, b, c0, c1
}

// FuzzMulStrips requires MulStrip, on each of its paths, to match refMul
// bit for bit on operands and strips decoded from the input.
func FuzzMulStrips(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is in testdata/fuzz/FuzzMulStrips
	f.Fuzz(func(t *testing.T, data []byte) {
		a, r0, r1, b, c0, c1 := stripsFromBytes(data)
		checkStripBits(t, a, r0, r1, b, c0, c1)
	})
}

// TestStripsFromBytes pins the fuzz encoding, so the committed corpus
// keeps decoding to the cases its file names promise.
func TestStripsFromBytes(t *testing.T) {
	a, r0, r1, b, c0, c1 := stripsFromBytes([]byte{5, 7, 6, 1, 3, 2, 3, 0, 20, 2, 30, 4, 40})
	if a.Rows != 5 || a.Cols != 7 || b.Cols != 6 || r0 != 1 || r1 != 4 || c0 != 2 || c1 != 5 {
		t.Fatalf("decoded %dx%d·%dx%d [%d:%d]×[%d:%d]", a.Rows, a.Cols, b.Rows, b.Cols, r0, r1, c0, c1)
	}
	if a.Data[0] != 0 || a.Data[1] != 20.0/16 || !math.IsInf(a.Data[2], 1) || !math.IsNaN(a.Data[4]) {
		t.Fatalf("decoded elements %v", a.Data[:6])
	}
}
